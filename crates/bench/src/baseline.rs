//! Baseline NFS servers for the paper's four-way comparison (§5.1.1).
//!
//! The paper compares S4 against a FreeBSD 4.0 NFS server (FFS) and a
//! RedHat 6.1 Linux NFS server (ext2, mounted synchronously). What makes
//! these baselines interesting is their *update-in-place* I/O pattern:
//! data and metadata live at fixed disk addresses, so NFSv2's
//! commit-before-reply semantics turn every small operation into several
//! scattered synchronous writes — exactly the pattern the log-structured
//! S4 drive batches away.
//!
//! One server, [`UipServer`], models both. `UipServer::format(dev, true,
//! clock)` is FreeBSD's behavior (every metadata update written
//! synchronously); `UipServer::format(dev, false, clock)` is Linux's
//! `sync` mount, including the paper's observed anomaly ("the superior
//! performance of the Linux NFS server in the configure stage is due to
//! a much lower number of write I/Os ... apparently due to a flaw in the
//! synchronous mount option"): inode updates are batched instead of
//! written per operation.
//!
//! File *data* genuinely lives on the wrapped block device at allocated
//! addresses; directory and inode structures are tracked in memory while
//! their I/O is charged through explicit sector writes at their fixed
//! locations, so service times through a timed device reflect a realistic
//! FFS/ext2 access pattern (seeks between inode region, directory blocks,
//! and file data).

use std::collections::HashMap;

use s4_clock::sync::Mutex;

use s4_clock::{CpuModel, SimClock, SimTime};
use s4_fs::server::{FsError, FsResult};
use s4_fs::{FileAttr, FileKind, FileServer, Handle};
use s4_lfs::{BlockAddr, BlockCache, Bytes};
use s4_simdisk::{BlockDev, SECTOR_SIZE};

const BLOCK_SIZE: usize = 4096;
const SECTORS_PER_BLOCK: u64 = (BLOCK_SIZE / SECTOR_SIZE) as u64;

/// Sectors reserved for the inode region at the front of the device:
/// 8K inodes, 1 sector each.
const INODE_REGION_SECTORS: u64 = 8192;
/// Dirty-inode flush interval, in operations, when inode writes are
/// batched (the Linux ext2 "sync-mount flaw").
const META_BATCH: u32 = 32;
/// Server block cache capacity in blocks: 512 MB (the paper's servers
/// could grow their caches to fill 512 MB).
const CACHE_BLOCKS: usize = 128 * 1024;
/// Cylinder-group size in blocks (8 MB): new files are allocated near
/// their directory's group, as FFS does.
const GROUP_BLOCKS: u64 = 2048;

struct Node {
    kind: FileKind,
    size: u64,
    mtime: SimTime,
    mode: u16,
    /// Allocated data blocks, by logical index.
    blocks: Vec<Option<u64>>,
    /// Directory contents (for `FileKind::Dir`).
    entries: Vec<(String, Handle, FileKind)>,
    /// Block that holds this directory's entry table.
    dir_block: Option<u64>,
    /// Symlink target.
    target: String,
}

struct State {
    nodes: HashMap<Handle, Node>,
    next_handle: Handle,
    /// Data-block allocation bitmap.
    bitmap: Vec<bool>,
    /// Rotating allocation cursor per group.
    dirty_inodes: Vec<Handle>,
    ops_since_meta_flush: u32,
    /// The server cache: every block number held, with its bytes.
    cache: BlockCache,
}

/// The update-in-place server over a block device.
pub(crate) struct UipServer<D: BlockDev> {
    dev: D,
    clock: SimClock,
    /// Every inode update written synchronously (FreeBSD FFS), or
    /// batched every [`META_BATCH`] operations (Linux ext2 `sync`).
    sync_inodes: bool,
    data_start: u64,
    total_blocks: u64,
    state: Mutex<State>,
    root: Handle,
}

impl<D: BlockDev> UipServer<D> {
    /// Formats `dev` with an empty file system. With `sync_inodes`
    /// every inode update is written synchronously, as FreeBSD's FFS
    /// does; without, inode writes are batched and flushed every
    /// `META_BATCH` operations, the Linux ext2 `sync` mount's flaw.
    pub(crate) fn format(dev: D, sync_inodes: bool, clock: SimClock) -> FsResult<Self> {
        let data_start = INODE_REGION_SECTORS;
        let total_blocks = dev.num_sectors().saturating_sub(data_start) / SECTORS_PER_BLOCK;
        if total_blocks < 16 {
            return Err(FsError::Storage("device too small".into()));
        }
        let mut state = State {
            nodes: HashMap::new(),
            next_handle: 1,
            bitmap: vec![false; total_blocks as usize],
            dirty_inodes: Vec::new(),
            ops_since_meta_flush: 0,
            cache: BlockCache::new(CACHE_BLOCKS),
        };
        let root = state.next_handle;
        state.next_handle += 1;
        state.nodes.insert(
            root,
            Node {
                kind: FileKind::Dir,
                size: 0,
                mtime: clock.now(),
                mode: 0o755,
                blocks: Vec::new(),
                entries: Vec::new(),
                dir_block: None,
                target: String::new(),
            },
        );
        Ok(UipServer {
            dev,
            clock,
            sync_inodes,
            data_start,
            total_blocks,
            state: Mutex::new(state),
            root,
        })
    }

    fn sector_of_block(&self, block: u64) -> u64 {
        self.data_start + block * SECTORS_PER_BLOCK
    }

    fn sector_of_inode(&self, h: Handle) -> u64 {
        h % INODE_REGION_SECTORS
    }

    /// Allocates one data block near `hint`.
    fn alloc_block(&self, state: &mut State, hint: u64) -> FsResult<u64> {
        let n = self.total_blocks as usize;
        let start = (hint % self.total_blocks) as usize;
        for i in 0..n {
            let idx = (start + i) % n;
            if !state.bitmap[idx] {
                state.bitmap[idx] = true;
                return Ok(idx as u64);
            }
        }
        Err(FsError::Storage("disk full".into()))
    }

    fn free_block(&self, state: &mut State, block: u64) {
        state.bitmap[block as usize] = false;
        state.cache.invalidate(BlockAddr(block));
    }

    /// Group-affine allocation hint for a file (FFS places a file near
    /// its inode's cylinder group).
    fn hint_for(&self, h: Handle) -> u64 {
        (h * GROUP_BLOCKS) % self.total_blocks.max(1)
    }

    /// Charges a synchronous inode write (or defers it under the ext2
    /// batching model).
    fn write_inode(&self, state: &mut State, h: Handle) {
        if self.sync_inodes {
            let buf = vec![0u8; SECTOR_SIZE];
            let _ = self.dev.write(self.sector_of_inode(h), &buf);
        } else {
            if !state.dirty_inodes.contains(&h) {
                state.dirty_inodes.push(h);
            }
            state.ops_since_meta_flush += 1;
            if state.ops_since_meta_flush >= META_BATCH {
                let dirty = std::mem::take(&mut state.dirty_inodes);
                for h in dirty {
                    let buf = vec![0u8; SECTOR_SIZE];
                    let _ = self.dev.write(self.sector_of_inode(h), &buf);
                }
                state.ops_since_meta_flush = 0;
            }
        }
    }

    /// Charges a synchronous directory-block write, allocating the block
    /// on first use.
    fn write_dir_block(&self, state: &mut State, dir: Handle) -> FsResult<()> {
        let hint = self.hint_for(dir);
        let block = match state.nodes.get(&dir).and_then(|n| n.dir_block) {
            Some(b) => b,
            None => {
                let b = self.alloc_block(state, hint)?;
                state
                    .nodes
                    .get_mut(&dir)
                    .expect("caller validated dir")
                    .dir_block = Some(b);
                b
            }
        };
        let buf = vec![0u8; BLOCK_SIZE];
        self.dev
            .write(self.sector_of_block(block), &buf)
            .map_err(|e| FsError::Storage(e.to_string()))?;
        state.cache.insert(BlockAddr(block), Bytes::from(buf));
        Ok(())
    }

    fn node<'a>(&self, state: &'a State, h: Handle) -> FsResult<&'a Node> {
        state.nodes.get(&h).ok_or(FsError::NotFound)
    }

    fn charge_cpu(&self, bytes: usize) {
        // A late-1990s server CPU.
        self.clock.advance(CpuModel::pentium3_600().op_cost(bytes));
    }

    fn create_node(
        &self,
        dir: Handle,
        name: &str,
        kind: FileKind,
        mode: u16,
        target: &str,
    ) -> FsResult<Handle> {
        if name.is_empty() || name.len() > 255 || name.contains('/') {
            return Err(FsError::Invalid("file name"));
        }
        self.charge_cpu(0);
        let mut state = self.state.lock();
        {
            let d = self.node(&state, dir)?;
            if d.kind != FileKind::Dir {
                return Err(FsError::NotADirectory);
            }
            if d.entries.iter().any(|(n, _, _)| n == name) {
                return Err(FsError::Exists);
            }
        }
        let h = state.next_handle;
        state.next_handle += 1;
        state.nodes.insert(
            h,
            Node {
                kind,
                size: target.len() as u64,
                mtime: self.clock.now(),
                mode,
                blocks: Vec::new(),
                entries: Vec::new(),
                dir_block: None,
                target: target.to_string(),
            },
        );
        let now = self.clock.now();
        {
            let d = state.nodes.get_mut(&dir).expect("validated above");
            d.entries.push((name.to_string(), h, kind));
            d.mtime = now;
        }
        // NFSv2 + FFS: new inode, directory block, and directory inode all
        // written synchronously.
        self.write_inode(&mut state, h);
        self.write_dir_block(&mut state, dir)?;
        self.write_inode(&mut state, dir);
        Ok(h)
    }

    fn remove_entry(&self, dir: Handle, name: &str, want_dir: bool) -> FsResult<()> {
        self.charge_cpu(0);
        let mut state = self.state.lock();
        let idx = {
            let d = self.node(&state, dir)?;
            if d.kind != FileKind::Dir {
                return Err(FsError::NotADirectory);
            }
            d.entries
                .iter()
                .position(|(n, _, _)| n == name)
                .ok_or(FsError::NotFound)?
        };
        let (_, h, kind) = state.nodes.get(&dir).expect("validated").entries[idx].clone();
        match (want_dir, kind) {
            (true, FileKind::Dir) => {
                if !self.node(&state, h)?.entries.is_empty() {
                    return Err(FsError::NotEmpty);
                }
            }
            (false, FileKind::Dir) => return Err(FsError::Invalid("is a directory")),
            (true, _) => return Err(FsError::NotADirectory),
            (false, _) => {}
        }
        state
            .nodes
            .get_mut(&dir)
            .expect("validated")
            .entries
            .remove(idx);
        // Free the victim's blocks.
        if let Some(node) = state.nodes.remove(&h) {
            for b in node.blocks.into_iter().flatten() {
                self.free_block(&mut state, b);
            }
            if let Some(b) = node.dir_block {
                self.free_block(&mut state, b);
            }
        }
        let now = self.clock.now();
        state.nodes.get_mut(&dir).expect("validated").mtime = now;
        self.write_dir_block(&mut state, dir)?;
        self.write_inode(&mut state, dir);
        self.write_inode(&mut state, h); // deallocated inode
        Ok(())
    }
}

impl<D: BlockDev> FileServer for UipServer<D> {
    fn root(&self) -> Handle {
        self.root
    }

    fn lookup(&self, dir: Handle, name: &str) -> FsResult<Handle> {
        self.charge_cpu(0);
        let state = self.state.lock();
        let d = self.node(&state, dir)?;
        if d.kind != FileKind::Dir {
            return Err(FsError::NotADirectory);
        }
        d.entries
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, h, _)| *h)
            .ok_or(FsError::NotFound)
    }

    fn create(&self, dir: Handle, name: &str) -> FsResult<Handle> {
        self.create_node(dir, name, FileKind::File, 0o644, "")
    }

    fn mkdir(&self, dir: Handle, name: &str) -> FsResult<Handle> {
        self.create_node(dir, name, FileKind::Dir, 0o755, "")
    }

    fn symlink(&self, dir: Handle, name: &str, target: &str) -> FsResult<Handle> {
        self.create_node(dir, name, FileKind::Symlink, 0o777, target)
    }

    fn readlink(&self, file: Handle) -> FsResult<String> {
        let state = self.state.lock();
        let n = self.node(&state, file)?;
        if n.kind != FileKind::Symlink {
            return Err(FsError::Invalid("not a symlink"));
        }
        Ok(n.target.clone())
    }

    fn read(&self, file: Handle, offset: u64, len: u64) -> FsResult<Vec<u8>> {
        self.charge_cpu(len as usize);
        let state = self.state.lock();
        let n = self.node(&state, file)?;
        let (size, blocks) = (n.size, &n.blocks);
        if offset >= size {
            return Ok(Vec::new());
        }
        let len = len.min(size - offset) as usize;
        let mut out = vec![0u8; len];
        let bs = BLOCK_SIZE as u64;
        let first = offset / bs;
        let last = (offset + len as u64 - 1) / bs;
        for lbn in first..=last {
            let Some(&Some(block)) = blocks.get(lbn as usize) else {
                continue;
            };
            // Cache hit: no disk I/O. Miss: one block read.
            let addr = BlockAddr(block);
            let buf = match state.cache.get(addr) {
                Some(cached) => cached,
                None => {
                    let mut buf = vec![0u8; BLOCK_SIZE];
                    self.dev
                        .read(self.sector_of_block(block), &mut buf)
                        .map_err(|e| FsError::Storage(e.to_string()))?;
                    let buf = Bytes::from(buf);
                    state.cache.insert(addr, buf.clone());
                    buf
                }
            };
            let block_start = lbn * bs;
            let copy_from = offset.max(block_start);
            let copy_to = (offset + len as u64).min(block_start + bs);
            out[(copy_from - offset) as usize..(copy_to - offset) as usize].copy_from_slice(
                &buf[(copy_from - block_start) as usize..(copy_to - block_start) as usize],
            );
        }
        Ok(out)
    }

    fn write(&self, file: Handle, offset: u64, data: &[u8]) -> FsResult<()> {
        if data.is_empty() {
            return Ok(());
        }
        self.charge_cpu(data.len());
        let mut state = self.state.lock();
        if self.node(&state, file)?.kind == FileKind::Dir {
            return Err(FsError::Invalid("is a directory"));
        }
        let hint = self.hint_for(file);
        let bs = BLOCK_SIZE as u64;
        let first = offset / bs;
        let last = (offset + data.len() as u64 - 1) / bs;
        for lbn in first..=last {
            // Ensure allocation.
            let need_len = (lbn as usize) + 1;
            let existing = {
                let n = self.node(&state, file)?;
                n.blocks.get(lbn as usize).copied().flatten()
            };
            let block = match existing {
                Some(b) => b,
                None => {
                    let b = self.alloc_block(&mut state, hint + lbn)?;
                    let n = state.nodes.get_mut(&file).expect("validated");
                    if n.blocks.len() < need_len {
                        n.blocks.resize(need_len, None);
                    }
                    n.blocks[lbn as usize] = Some(b);
                    b
                }
            };
            // Build block contents: a partial write of an existing block
            // merges into its old bytes, which the server holds in memory,
            // so they are read through `BlockDev::peek` at no charge.
            let block_start = lbn * bs;
            let copy_from = offset.max(block_start);
            let copy_to = (offset + data.len() as u64).min(block_start + bs);
            let mut buf = vec![0u8; BLOCK_SIZE];
            if copy_to - copy_from < bs && existing.is_some() {
                let _ = self.dev.peek(self.sector_of_block(block), &mut buf);
            }
            buf[(copy_from - block_start) as usize..(copy_to - block_start) as usize]
                .copy_from_slice(&data[(copy_from - offset) as usize..(copy_to - offset) as usize]);
            // Update-in-place, synchronous (NFSv2).
            self.dev
                .write(self.sector_of_block(block), &buf)
                .map_err(|e| FsError::Storage(e.to_string()))?;
            state.cache.insert(BlockAddr(block), Bytes::from(buf));
        }
        let now = self.clock.now();
        {
            let n = state.nodes.get_mut(&file).expect("validated");
            n.size = n.size.max(offset + data.len() as u64);
            n.mtime = now;
        }
        self.write_inode(&mut state, file);
        Ok(())
    }

    fn getattr(&self, file: Handle) -> FsResult<FileAttr> {
        let state = self.state.lock();
        let n = self.node(&state, file)?;
        Ok(FileAttr {
            kind: n.kind,
            size: n.size,
            mtime: n.mtime,
            mode: n.mode,
        })
    }

    fn truncate(&self, file: Handle, size: u64) -> FsResult<()> {
        self.charge_cpu(0);
        let mut state = self.state.lock();
        let keep = size.div_ceil(BLOCK_SIZE as u64) as usize;
        let freed: Vec<u64> = {
            let n = state.nodes.get_mut(&file).ok_or(FsError::NotFound)?;
            let freed = n
                .blocks
                .drain(keep.min(n.blocks.len())..)
                .flatten()
                .collect();
            n.size = size;
            n.mtime = self.clock.now();
            freed
        };
        for b in freed {
            self.free_block(&mut state, b);
        }
        self.write_inode(&mut state, file);
        Ok(())
    }

    fn remove(&self, dir: Handle, name: &str) -> FsResult<()> {
        self.remove_entry(dir, name, false)
    }

    fn rmdir(&self, dir: Handle, name: &str) -> FsResult<()> {
        self.remove_entry(dir, name, true)
    }

    fn rename(
        &self,
        from_dir: Handle,
        from_name: &str,
        to_dir: Handle,
        to_name: &str,
    ) -> FsResult<()> {
        self.charge_cpu(0);
        let mut state = self.state.lock();
        let idx = {
            let d = self.node(&state, from_dir)?;
            d.entries
                .iter()
                .position(|(n, _, _)| n == from_name)
                .ok_or(FsError::NotFound)?
        };
        let entry = state
            .nodes
            .get_mut(&from_dir)
            .expect("validated")
            .entries
            .remove(idx);
        // Overwrite an existing target.
        let overwritten: Option<Handle> = {
            let d = state.nodes.get_mut(&to_dir).ok_or(FsError::NotFound)?;
            let old = d
                .entries
                .iter()
                .position(|(n, _, _)| n == to_name)
                .map(|i| d.entries.remove(i).1);
            d.entries.push((to_name.to_string(), entry.1, entry.2));
            old
        };
        if let Some(h) = overwritten {
            if let Some(node) = state.nodes.remove(&h) {
                for b in node.blocks.into_iter().flatten() {
                    self.free_block(&mut state, b);
                }
            }
        }
        self.write_dir_block(&mut state, from_dir)?;
        self.write_inode(&mut state, from_dir);
        if to_dir != from_dir {
            self.write_dir_block(&mut state, to_dir)?;
            self.write_inode(&mut state, to_dir);
        }
        Ok(())
    }

    fn readdir(&self, dir: Handle) -> FsResult<Vec<(String, Handle, FileKind)>> {
        let state = self.state.lock();
        let d = self.node(&state, dir)?;
        if d.kind != FileKind::Dir {
            return Err(FsError::NotADirectory);
        }
        Ok(d.entries.clone())
    }

    fn now(&self) -> SimTime {
        self.clock.now()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build_system, SystemKind};
    use s4_simdisk::{DiskModelParams, MemDisk, TimedDisk};
    use s4_workloads::postmark::{self, PostmarkConfig};
    use s4_workloads::replay;

    fn server() -> UipServer<TimedDisk<MemDisk>> {
        let clock = SimClock::new();
        let dev = TimedDisk::new(
            MemDisk::new(400_000),
            DiskModelParams::cheetah_9gb_10k(),
            clock.clone(),
        );
        UipServer::format(dev, true, clock).unwrap()
    }

    #[test]
    fn create_write_read() {
        let s = server();
        let root = s.root();
        let f = s.create(root, "a.txt").unwrap();
        s.write(f, 0, b"hello baseline").unwrap();
        assert_eq!(s.read(f, 0, 100).unwrap(), b"hello baseline");
        assert_eq!(s.read(f, 6, 8).unwrap(), b"baseline");
        let attr = s.getattr(f).unwrap();
        assert_eq!(attr.size, 14);
        assert_eq!(attr.kind, FileKind::File);
    }

    #[test]
    fn directories_and_links() {
        let s = server();
        let root = s.root();
        let d = s.mkdir(root, "sub").unwrap();
        let f = s.create(d, "x").unwrap();
        assert_eq!(s.lookup(d, "x").unwrap(), f);
        assert_eq!(s.resolve_path("sub/x").unwrap(), f);
        let l = s.symlink(root, "lnk", "sub/x").unwrap();
        assert_eq!(s.readlink(l).unwrap(), "sub/x");
        assert_eq!(s.readdir(root).unwrap().len(), 2);
        // rmdir refuses non-empty.
        assert_eq!(s.rmdir(root, "sub").unwrap_err(), FsError::NotEmpty);
        s.remove(d, "x").unwrap();
        s.rmdir(root, "sub").unwrap();
    }

    #[test]
    fn rename_with_overwrite() {
        let s = server();
        let root = s.root();
        let a = s.create(root, "a").unwrap();
        s.write(a, 0, b"AAA").unwrap();
        let b = s.create(root, "b").unwrap();
        s.write(b, 0, b"BBB").unwrap();
        s.rename(root, "a", root, "b").unwrap();
        let nb = s.lookup(root, "b").unwrap();
        assert_eq!(nb, a);
        assert_eq!(s.read(nb, 0, 10).unwrap(), b"AAA");
        assert!(s.lookup(root, "a").is_err());
        assert_eq!(s.readdir(root).unwrap().len(), 1);
    }

    #[test]
    fn truncate_frees_blocks_for_reuse() {
        let s = server();
        let root = s.root();
        let f = s.create(root, "big").unwrap();
        s.write(f, 0, &vec![7u8; 64 * 1024]).unwrap();
        s.truncate(f, 100).unwrap();
        assert_eq!(s.getattr(f).unwrap().size, 100);
        assert_eq!(s.read(f, 0, 4096).unwrap().len(), 100);
    }

    #[test]
    fn writes_cost_more_time_than_cached_reads() {
        let s = server();
        let root = s.root();
        let f = s.create(root, "f").unwrap();
        let t0 = s.now();
        s.write(f, 0, &vec![1u8; 8192]).unwrap();
        let t_write = s.now() - t0;
        let t1 = s.now();
        s.read(f, 0, 8192).unwrap(); // cache hit: no disk charge
        let t_read = s.now() - t1;
        assert!(t_write > t_read, "write {t_write:?} vs read {t_read:?}");
    }

    #[test]
    fn ffs_issues_more_write_ios_than_ext2_sync() {
        // The Figure 4 configure-phase anomaly: ext2-sync does fewer
        // writes.
        let run = |sync: bool| -> u64 {
            let clock = SimClock::new();
            let dev = TimedDisk::new(
                MemDisk::new(400_000),
                DiskModelParams::free(),
                clock.clone(),
            );
            let stats = dev.stats_handle();
            let s = UipServer::format(dev, sync, clock).unwrap();
            let root = s.root();
            for i in 0..100 {
                let f = s.create(root, &format!("f{i}")).unwrap();
                s.write(f, 0, b"small").unwrap();
            }
            stats.snapshot().writes
        };
        let ffs = run(true);
        let ext2 = run(false);
        assert!(
            ffs > ext2 + 50,
            "ffs {ffs} writes should exceed ext2-sync {ext2}"
        );
    }

    #[test]
    fn data_survives_on_the_device() {
        // The baselines genuinely store data at allocated addresses.
        let clock = SimClock::new();
        let s = UipServer::format(MemDisk::new(400_000), true, clock).unwrap();
        let root = s.root();
        let f = s.create(root, "f").unwrap();
        s.write(f, 0, b"persisted-bytes").unwrap();
        // Scan the raw device for the contents.
        let dev = &s.dev;
        let mut found = false;
        for sector in (0..dev.num_sectors()).step_by(8) {
            let mut buf = vec![0u8; SECTOR_SIZE];
            dev.read(sector, &mut buf).unwrap();
            if buf.windows(15).any(|w| w == b"persisted-bytes") {
                found = true;
                break;
            }
        }
        assert!(found);
    }

    #[test]
    fn baselines_and_s4_agree_on_file_semantics() {
        // Differential test: replay the same trace against S4 and the FFS
        // baseline; final file contents must agree byte-for-byte.
        let s4 = build_system(SystemKind::S4Drive).fs;
        let ffs = build_system(SystemKind::FreeBsdNfs).fs;

        let pm = postmark::generate(&PostmarkConfig {
            nfiles: 60,
            transactions: 200,
            seed: 99,
            ..PostmarkConfig::default()
        });
        let trace: Vec<_> = pm
            .create
            .iter()
            .chain(pm.transactions.iter())
            .cloned()
            .collect();
        assert_eq!(replay(s4.as_ref(), &trace).errors, 0);
        assert_eq!(replay(ffs.as_ref(), &trace).errors, 0);

        let collect = |srv: &dyn FileServer| {
            let mut out = std::collections::BTreeMap::new();
            for (dname, dh, kind) in srv.readdir(srv.root()).unwrap() {
                if kind != FileKind::Dir {
                    continue;
                }
                for (fname, fh, _) in srv.readdir(dh).unwrap() {
                    let size = srv.getattr(fh).unwrap().size;
                    out.insert(format!("{dname}/{fname}"), srv.read(fh, 0, size).unwrap());
                }
            }
            out
        };
        let a = collect(s4.as_ref());
        let b = collect(ffs.as_ref());
        assert_eq!(a.len(), b.len());
        assert_eq!(a, b, "S4 and FFS disagree on final contents");
    }
}
