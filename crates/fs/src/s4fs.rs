//! [`S4FileServer`]: the S4 client, translating NFS-style operations
//! into S4 RPCs (§4.1.2).
//!
//! * Files, directories, and symlinks are overlaid on objects; a
//!   directory object's data is its entry table, a symlink object's data
//!   is its target.
//! * The NFS file handle *is* the ObjectID.
//! * The file type and mode live in the object's opaque attribute space.
//! * After every state-modifying operation the client sends a `Sync` RPC
//!   ("since this RPC does not return until the synchronization is
//!   complete, NFSv2 semantics are supported even though the drive
//!   normally caches writes").
//! * Read-only attribute and directory caches absorb repeat lookups.
//!
//! Time-travel variants (`*_at`) expose the drive's time-based access for
//! the recovery tools; they bypass the caches.

use std::collections::HashMap;

use s4_clock::sync::Mutex;

use s4_clock::SimTime;
use s4_core::codec::Reader;
use s4_core::{ObjectId, Request, RequestContext, Response};
use s4_detect::dirblob;

use crate::server::{FileAttr, FileKind, FileServer, FsError, FsResult, Handle};
use crate::transport::Transport;

/// Translator configuration. The attribute and directory caches and the
/// batching of one file-system operation's drive requests into one RPC
/// (§4.1.2: "the drive also supports batching of setattr, getattr, and
/// sync operations with create, read, write, and append operations ... to
/// minimize the number of RPC calls") are how the translator works, not
/// options.
#[derive(Clone, Copy, Debug)]
pub struct S4FsConfig {
    /// Send `Sync` after every mutating operation (NFSv2 semantics).
    pub sync_per_op: bool,
}

impl Default for S4FsConfig {
    fn default() -> Self {
        S4FsConfig { sync_per_op: true }
    }
}

#[derive(Default)]
struct Caches {
    attr: HashMap<Handle, FileAttr>,
    dir: HashMap<Handle, Vec<(String, Handle, FileKind)>>,
}

/// The S4 client / NFS translator.
pub struct S4FileServer<T: Transport> {
    transport: T,
    ctx: RequestContext,
    root: Handle,
    config: S4FsConfig,
    caches: Mutex<Caches>,
}

/// The attribute blob a translator keeps in an object's opaque
/// attribute space: the kind byte of the directory format, then the mode.
fn encode_fattr(kind: FileKind, mode: u16) -> Vec<u8> {
    let mut out = Vec::with_capacity(3);
    out.push(kind as u8);
    out.extend_from_slice(&mode.to_le_bytes());
    out
}

/// An object no translator wrote (short blob, unknown kind byte) reads
/// as a plain file.
fn decode_fattr(blob: &[u8]) -> (FileKind, u16) {
    let mut r = Reader::new(blob, "attribute blob truncated");
    match (r.u8(), r.u16()) {
        (Ok(kind), Ok(mode)) => (FileKind::from_u8(kind).unwrap_or(FileKind::File), mode),
        _ => (FileKind::File, 0o644),
    }
}

impl<T: Transport> S4FileServer<T> {
    /// Mounts the file system exported under `partition`, creating it (an
    /// empty root directory) if the partition does not exist yet.
    pub fn mount(
        transport: T,
        ctx: RequestContext,
        partition: &str,
        config: S4FsConfig,
    ) -> FsResult<Self> {
        let root = match transport.call(
            &ctx,
            &Request::PMount {
                name: partition.into(),
                time: None,
            },
        ) {
            Ok(Response::Mounted(oid)) => oid.0,
            Ok(other) => return Err(FsError::Storage(format!("bad PMount response {other:?}"))),
            Err(FsError::NotFound) => {
                // First mount: create the root directory object.
                let oid = match transport.call(&ctx, &Request::Create)? {
                    Response::Created(oid) => oid,
                    other => {
                        return Err(FsError::Storage(format!("bad Create response {other:?}")))
                    }
                };
                transport.call(
                    &ctx,
                    &Request::SetAttr {
                        oid,
                        attrs: encode_fattr(FileKind::Dir, 0o755),
                    },
                )?;
                transport.call(
                    &ctx,
                    &Request::PCreate {
                        name: partition.into(),
                        oid,
                    },
                )?;
                transport.call(&ctx, &Request::Sync)?;
                oid.0
            }
            Err(e) => return Err(e),
        };
        Ok(S4FileServer {
            transport,
            ctx,
            root,
            config,
            caches: Mutex::new(Caches::default()),
        })
    }

    /// The transport (and through it, the drive for loopback setups).
    pub fn transport(&self) -> &T {
        &self.transport
    }

    /// Consumes the file server, returning its transport (used to unmount
    /// the underlying drive cleanly).
    pub fn into_transport(self) -> T {
        self.transport
    }

    /// The request context this client stamps on RPCs.
    pub fn context(&self) -> &RequestContext {
        &self.ctx
    }

    fn call(&self, req: &Request) -> FsResult<Response> {
        self.transport.call(&self.ctx, req)
    }

    /// Runs a mutating operation's drive requests, appending the NFSv2
    /// per-op Sync, as one batched RPC (one network round trip). Returns
    /// the sub-responses (exclusive of the Sync).
    fn run_mutation(&self, reqs: Vec<Request>) -> FsResult<Vec<Response>> {
        self.run_requests(reqs, true)
    }

    /// Like [`Self::run_mutation`] but lets multi-step operations defer
    /// the Sync to their final batch (one durable point per NFS op).
    fn run_requests(&self, mut reqs: Vec<Request>, sync: bool) -> FsResult<Vec<Response>> {
        let n = reqs.len();
        if sync && self.config.sync_per_op {
            reqs.push(Request::Sync);
        }
        if reqs.len() > 1 {
            match self.call(&Request::Batch(reqs))? {
                Response::Batch(mut rs) => {
                    rs.truncate(n);
                    Ok(rs)
                }
                other => Err(FsError::Storage(format!("bad Batch response {other:?}"))),
            }
        } else {
            let mut out = Vec::with_capacity(n);
            for r in &reqs {
                out.push(self.call(r)?);
            }
            out.truncate(n);
            Ok(out)
        }
    }

    fn refresh_dir_caches(&self, dir: Handle, entries: &[(String, Handle, FileKind)]) {
        let mut caches = self.caches.lock();
        caches.attr.remove(&dir);
        caches.dir.insert(dir, entries.to_vec());
    }

    fn read_object(
        &self,
        h: Handle,
        offset: u64,
        len: u64,
        time: Option<SimTime>,
    ) -> FsResult<Vec<u8>> {
        match self.call(&Request::Read {
            oid: ObjectId(h),
            offset,
            len,
            time,
        })? {
            Response::Data(d) => Ok(d),
            other => Err(FsError::Storage(format!("bad Read response {other:?}"))),
        }
    }

    fn getattr_raw(&self, h: Handle, time: Option<SimTime>) -> FsResult<FileAttr> {
        match self.call(&Request::GetAttr {
            oid: ObjectId(h),
            time,
        })? {
            Response::Attrs(a) => {
                let (kind, mode) = decode_fattr(&a.opaque);
                Ok(FileAttr {
                    kind,
                    size: a.size,
                    mtime: a.modified,
                    mode,
                })
            }
            other => Err(FsError::Storage(format!("bad GetAttr response {other:?}"))),
        }
    }

    fn load_dir(&self, dir: Handle) -> FsResult<Vec<(String, Handle, FileKind)>> {
        if let Some(hit) = self.caches.lock().dir.get(&dir) {
            return Ok(hit.clone());
        }
        let attr = self.getattr_cached(dir)?;
        if attr.kind != FileKind::Dir {
            return Err(FsError::NotADirectory);
        }
        let blob = self.read_object(dir, 0, attr.size, None)?;
        let entries = dirblob::decode(&blob)?;
        self.caches.lock().dir.insert(dir, entries.clone());
        Ok(entries)
    }

    fn getattr_cached(&self, h: Handle) -> FsResult<FileAttr> {
        if let Some(hit) = self.caches.lock().attr.get(&h) {
            return Ok(hit.clone());
        }
        let attr = self.getattr_raw(h, None)?;
        self.caches.lock().attr.insert(h, attr.clone());
        Ok(attr)
    }

    fn create_node(&self, dir: Handle, name: &str, kind: FileKind, mode: u16) -> FsResult<Handle> {
        if name.is_empty() || name.len() > 255 || name.contains('/') {
            return Err(FsError::Invalid("file name"));
        }
        let old_entries = self.load_dir(dir)?;
        if old_entries.iter().any(|(n, _, _)| n == name) {
            return Err(FsError::Exists);
        }
        // Two round trips: Create (the directory entry must embed the
        // drive-assigned id), then SetAttr + directory-block updates +
        // the single per-op Sync as one batch. A file or symlink's Create
        // rides with a GetAttr of its directory (§4.1.2 batches getattr
        // with create), which places it on the directory's shard of an
        // array, so the second batch writes one shard; a directory's lone
        // Create is placed round-robin, which spreads the tree.
        let first = match kind {
            FileKind::Dir => vec![Request::Create],
            _ => {
                let getattr = Request::GetAttr {
                    oid: ObjectId(dir),
                    time: None,
                };
                vec![getattr, Request::Create]
            }
        };
        let rs = self.run_requests(first, false)?;
        let oid = match rs.last() {
            Some(Response::Created(oid)) => *oid,
            other => return Err(FsError::Storage(format!("bad Create response {other:?}"))),
        };
        let mut entries = old_entries.clone();
        entries.push((name.to_string(), oid.0, kind));
        let mut reqs = vec![Request::SetAttr {
            oid,
            attrs: encode_fattr(kind, mode),
        }];
        let old_blob = dirblob::encode(&old_entries);
        reqs.extend(dirblob::update_requests(ObjectId(dir), &old_blob, &entries));
        self.run_mutation(reqs)?;
        self.refresh_dir_caches(dir, &entries);
        Ok(oid.0)
    }

    fn invalidate(&self, h: Handle) {
        let mut caches = self.caches.lock();
        caches.attr.remove(&h);
        caches.dir.remove(&h);
    }

    // ------------------------------------------------------------------
    // Time-travel extensions (§3.6 "time-enhanced" interfaces).
    // ------------------------------------------------------------------

    /// Lists `dir` as it was at `time`.
    pub fn readdir_at(
        &self,
        dir: Handle,
        time: SimTime,
    ) -> FsResult<Vec<(String, Handle, FileKind)>> {
        let attr = self.getattr_raw(dir, Some(time))?;
        let blob = self.read_object(dir, 0, attr.size, Some(time))?;
        Ok(dirblob::decode(&blob)?)
    }

    /// Resolves `name` in `dir` as of `time`.
    fn lookup_at(&self, dir: Handle, name: &str, time: SimTime) -> FsResult<Handle> {
        self.readdir_at(dir, time)?
            .into_iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, h, _)| h)
            .ok_or(FsError::NotFound)
    }

    /// Reads a file's contents as of `time`.
    pub fn read_at(&self, file: Handle, offset: u64, len: u64, time: SimTime) -> FsResult<Vec<u8>> {
        self.read_object(file, offset, len, Some(time))
    }

    /// Attributes as of `time`.
    pub fn getattr_at(&self, file: Handle, time: SimTime) -> FsResult<FileAttr> {
        self.getattr_raw(file, Some(time))
    }

    /// Resolves a path as of `time`.
    pub fn resolve_path_at(&self, path: &str, time: SimTime) -> FsResult<Handle> {
        let mut h = self.root;
        for part in path.split('/').filter(|p| !p.is_empty()) {
            h = self.lookup_at(h, part, time)?;
        }
        Ok(h)
    }
}

impl<T: Transport> FileServer for S4FileServer<T> {
    fn root(&self) -> Handle {
        self.root
    }

    fn lookup(&self, dir: Handle, name: &str) -> FsResult<Handle> {
        self.load_dir(dir)?
            .into_iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, h, _)| h)
            .ok_or(FsError::NotFound)
    }

    fn create(&self, dir: Handle, name: &str) -> FsResult<Handle> {
        self.create_node(dir, name, FileKind::File, 0o644)
    }

    fn mkdir(&self, dir: Handle, name: &str) -> FsResult<Handle> {
        self.create_node(dir, name, FileKind::Dir, 0o755)
    }

    fn symlink(&self, dir: Handle, name: &str, target: &str) -> FsResult<Handle> {
        let h = self.create_node(dir, name, FileKind::Symlink, 0o777)?;
        self.run_mutation(vec![Request::Write {
            oid: ObjectId(h),
            offset: 0,
            data: target.as_bytes().to_vec(),
        }])?;
        self.invalidate(h);
        Ok(h)
    }

    fn readlink(&self, file: Handle) -> FsResult<String> {
        let attr = self.getattr_cached(file)?;
        if attr.kind != FileKind::Symlink {
            return Err(FsError::Invalid("not a symlink"));
        }
        let data = self.read_object(file, 0, attr.size, None)?;
        String::from_utf8(data).map_err(|_| FsError::Storage("symlink target utf8".into()))
    }

    fn read(&self, file: Handle, offset: u64, len: u64) -> FsResult<Vec<u8>> {
        self.read_object(file, offset, len, None)
    }

    fn write(&self, file: Handle, offset: u64, data: &[u8]) -> FsResult<()> {
        self.run_mutation(vec![Request::Write {
            oid: ObjectId(file),
            offset,
            data: data.to_vec(),
        }])?;
        self.invalidate(file);
        Ok(())
    }

    fn getattr(&self, file: Handle) -> FsResult<FileAttr> {
        self.getattr_cached(file)
    }

    fn truncate(&self, file: Handle, size: u64) -> FsResult<()> {
        self.run_mutation(vec![Request::Truncate {
            oid: ObjectId(file),
            len: size,
        }])?;
        self.invalidate(file);
        Ok(())
    }

    fn remove(&self, dir: Handle, name: &str) -> FsResult<()> {
        let old_entries = self.load_dir(dir)?;
        let idx = old_entries
            .iter()
            .position(|(n, _, _)| n == name)
            .ok_or(FsError::NotFound)?;
        if old_entries[idx].2 == FileKind::Dir {
            return Err(FsError::Invalid("is a directory"));
        }
        let mut entries = old_entries.clone();
        // Swap-remove: the vacated slot is refilled from the end, so only
        // the affected directory blocks change (FFS-style slot reuse).
        let (_, h, _) = entries.swap_remove(idx);
        let mut reqs = vec![Request::Delete { oid: ObjectId(h) }];
        let old_blob = dirblob::encode(&old_entries);
        reqs.extend(dirblob::update_requests(ObjectId(dir), &old_blob, &entries));
        self.run_mutation(reqs)?;
        self.invalidate(h);
        self.refresh_dir_caches(dir, &entries);
        Ok(())
    }

    fn rmdir(&self, dir: Handle, name: &str) -> FsResult<()> {
        let old_entries = self.load_dir(dir)?;
        let idx = old_entries
            .iter()
            .position(|(n, _, _)| n == name)
            .ok_or(FsError::NotFound)?;
        if old_entries[idx].2 != FileKind::Dir {
            return Err(FsError::NotADirectory);
        }
        let h = old_entries[idx].1;
        if !self.load_dir(h)?.is_empty() {
            return Err(FsError::NotEmpty);
        }
        let mut entries = old_entries.clone();
        entries.swap_remove(idx);
        let mut reqs = vec![Request::Delete { oid: ObjectId(h) }];
        let old_blob = dirblob::encode(&old_entries);
        reqs.extend(dirblob::update_requests(ObjectId(dir), &old_blob, &entries));
        self.run_mutation(reqs)?;
        self.invalidate(h);
        self.refresh_dir_caches(dir, &entries);
        Ok(())
    }

    fn rename(
        &self,
        from_dir: Handle,
        from_name: &str,
        to_dir: Handle,
        to_name: &str,
    ) -> FsResult<()> {
        let old_from = self.load_dir(from_dir)?;
        let mut from_entries = old_from.clone();
        let idx = from_entries
            .iter()
            .position(|(n, _, _)| n == from_name)
            .ok_or(FsError::NotFound)?;
        // NFS rename overwrites an existing target: its entry leaves the
        // table here, its object is deleted last.
        let mut overwritten = None;
        // Directory tables to rewrite, `(dir, old, new)` in request order.
        let mut tables = Vec::new();
        if from_dir == to_dir {
            let tidx = from_entries.iter().position(|(n, _, _)| n == to_name);
            from_entries[idx].0 = to_name.to_string();
            if let Some(tidx) = tidx.filter(|&tidx| tidx != idx) {
                overwritten = Some(from_entries.swap_remove(tidx).1);
            }
        } else {
            let (_, h, kind) = from_entries.swap_remove(idx);
            let old_to = self.load_dir(to_dir)?;
            let mut to_entries = old_to.clone();
            if let Some(tidx) = to_entries.iter().position(|(n, _, _)| n == to_name) {
                overwritten = Some(to_entries.swap_remove(tidx).1);
            }
            to_entries.push((to_name.to_string(), h, kind));
            // The name enters the target before it leaves the source: a
            // lone drive stops a batch at its first refused request, so
            // the file keeps a name (or two) wherever that is. On an
            // array two directories on two shards are one two-phase
            // commit.
            tables.push((to_dir, old_to, to_entries));
        }
        tables.push((from_dir, old_from, from_entries));
        let mut reqs: Vec<Request> = tables
            .iter()
            .flat_map(|(dir, old, new)| {
                dirblob::update_requests(ObjectId(*dir), &dirblob::encode(old), new)
            })
            .collect();
        reqs.extend(overwritten.map(|th| Request::Delete { oid: ObjectId(th) }));
        let done = self.run_mutation(reqs);
        for (dir, _, new) in &tables {
            match done {
                Ok(_) => self.refresh_dir_caches(*dir, new),
                // Part of the batch may have been applied.
                Err(_) => self.invalidate(*dir),
            }
        }
        if let Some(th) = overwritten {
            self.invalidate(th);
        }
        done.map(|_| ())
    }

    fn readdir(&self, dir: Handle) -> FsResult<Vec<(String, Handle, FileKind)>> {
        self.load_dir(dir)
    }

    fn now(&self) -> SimTime {
        self.transport.clock().now()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fattr_codec() {
        let blob = encode_fattr(FileKind::Dir, 0o755);
        assert_eq!(decode_fattr(&blob), (FileKind::Dir, 0o755));
        // Unknown blobs default sanely.
        assert_eq!(decode_fattr(&[]), (FileKind::File, 0o644));
        assert_eq!(decode_fattr(&[2, 0]), (FileKind::File, 0o644));
        assert_eq!(decode_fattr(&[9, 0o55, 0]), (FileKind::File, 0o55));
    }
}
