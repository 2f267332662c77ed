//! The conventional versioning metadata baseline (Figure 2, left side).
//!
//! "In a conventional versioning system, a single update to a
//! triple-indirect block could require four new blocks as well as a new
//! inode. Early experiments with this type of versioning system showed
//! that modifying a large file could cause up to a 4x growth in disk
//! usage." (§4.2.2)
//!
//! [`ConventionalMeta`] models exactly that: an FFS-style inode with 12
//! direct pointers and single/double/triple indirect trees, where every
//! update copies-on-write the whole pointer path (because old versions
//! must remain intact) and writes a fresh inode plus an Elephant-style
//! inode-log entry. Writes are issued through a [`BlockSink`] so the bench
//! can either count them or land them on the real log.

use std::collections::HashMap;

use s4_lfs::{BlockAddr, BLOCK_SIZE};

/// Pointers per indirect block (4096 / 8).
pub const PTRS_PER_BLOCK: u64 = (BLOCK_SIZE / 8) as u64;

/// Direct pointers in the inode.
pub const N_DIRECT: u64 = 12;

/// Where metadata blocks written by the conventional scheme go.
pub trait BlockSink {
    /// Writes one metadata block, returning its address.
    fn write_meta_block(&mut self, payload: &[u8]) -> BlockAddr;
}

/// A sink that only counts (for pure cost accounting).
#[derive(Debug, Default)]
pub struct CountingSink {
    /// Metadata blocks written so far.
    pub blocks: u64,
    next: u64,
}

impl BlockSink for CountingSink {
    fn write_meta_block(&mut self, _payload: &[u8]) -> BlockAddr {
        self.blocks += 1;
        self.next += 1;
        BlockAddr(self.next)
    }
}

/// Cost of one update under the conventional scheme.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UpdateCost {
    /// Indirect blocks newly written (copy-on-write path).
    pub indirect_blocks: u32,
    /// Inode blocks newly written (always 1 per update).
    pub inode_blocks: u32,
    /// Inode-log entries appended (always 1 per update, Elephant-style).
    pub inode_log_entries: u32,
}

impl UpdateCost {
    /// Total metadata bytes written for this update (block-granular).
    pub fn metadata_bytes(&self) -> u64 {
        (self.indirect_blocks as u64 + self.inode_blocks as u64) * BLOCK_SIZE as u64
    }
}

/// Identifies one node of the indirect tree: `(level, index)` where level
/// 1..=3 and index is the node's ordinal among its level.
type NodePos = (u8, u64);

/// Conventional copy-on-write versioned metadata for one file.
#[derive(Debug, Default)]
pub struct ConventionalMeta {
    /// Current address of each live indirect-tree node.
    nodes: HashMap<NodePos, BlockAddr>,
    /// Current inode address.
    inode: BlockAddr,
    /// Data pointers (kept logically; the bench manages data blocks).
    data: HashMap<u64, BlockAddr>,
    /// Total metadata blocks written over the file's lifetime.
    pub total_meta_blocks: u64,
}

impl ConventionalMeta {
    /// Creates an empty file (no metadata written yet).
    pub fn new() -> Self {
        Self::default()
    }

    /// Depth of the pointer path for logical block `lbn`: 0 for direct,
    /// 1..=3 for single/double/triple indirect.
    pub fn path_depth(lbn: u64) -> u8 {
        let single = PTRS_PER_BLOCK;
        let double = single * PTRS_PER_BLOCK;
        let triple = double * PTRS_PER_BLOCK;
        if lbn < N_DIRECT {
            0
        } else if lbn < N_DIRECT + single {
            1
        } else if lbn < N_DIRECT + single + double {
            2
        } else if lbn < N_DIRECT + single + double + triple {
            3
        } else {
            panic!("lbn {lbn} beyond triple-indirect range");
        }
    }

    /// The tree nodes on the path to `lbn`, top-down.
    fn path_nodes(lbn: u64) -> Vec<NodePos> {
        let depth = Self::path_depth(lbn);
        if depth == 0 {
            return Vec::new();
        }
        let single = PTRS_PER_BLOCK;
        let double = single * PTRS_PER_BLOCK;
        let off = match depth {
            1 => lbn - N_DIRECT,
            2 => lbn - N_DIRECT - single,
            3 => lbn - N_DIRECT - single - double,
            _ => unreachable!(),
        };
        // Node index at each level below the top, for this subtree.
        let mut nodes = Vec::with_capacity(depth as usize);
        for lvl in (1..=depth).rev() {
            // Index of the node at `lvl` levels above the data.
            let span = PTRS_PER_BLOCK.pow(lvl as u32 - 1);
            nodes.push((lvl, ((depth as u64) << 56) | (off / span)));
        }
        nodes
    }

    /// Records an update of logical block `lbn` (the data block itself is
    /// written by the caller): copies-on-write every indirect block on the
    /// path plus a fresh inode, and appends an inode-log entry.
    pub fn update_block<S: BlockSink>(
        &mut self,
        lbn: u64,
        data_addr: BlockAddr,
        sink: &mut S,
    ) -> UpdateCost {
        let path = Self::path_nodes(lbn);
        let payload = vec![0u8; BLOCK_SIZE];
        let mut cost = UpdateCost {
            indirect_blocks: 0,
            inode_blocks: 1,
            inode_log_entries: 1,
        };
        // New copy of every indirect block on the path (a version must not
        // share mutable metadata with its predecessor).
        for pos in path {
            let addr = sink.write_meta_block(&payload);
            self.nodes.insert(pos, addr);
            cost.indirect_blocks += 1;
        }
        // And a new inode.
        self.inode = sink.write_meta_block(&payload);
        self.data.insert(lbn, data_addr);
        self.total_meta_blocks += cost.indirect_blocks as u64 + cost.inode_blocks as u64;
        cost
    }

    /// Current data pointer for `lbn`.
    pub fn get(&self, lbn: u64) -> Option<BlockAddr> {
        self.data.get(&lbn).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_depths_match_ffs_layout() {
        assert_eq!(ConventionalMeta::path_depth(0), 0);
        assert_eq!(ConventionalMeta::path_depth(11), 0);
        assert_eq!(ConventionalMeta::path_depth(12), 1);
        assert_eq!(ConventionalMeta::path_depth(12 + 511), 1);
        assert_eq!(ConventionalMeta::path_depth(12 + 512), 2);
        assert_eq!(ConventionalMeta::path_depth(12 + 512 + 512 * 512 - 1), 2);
        assert_eq!(ConventionalMeta::path_depth(12 + 512 + 512 * 512), 3);
    }

    #[test]
    fn direct_update_writes_inode_only() {
        let mut m = ConventionalMeta::new();
        let mut sink = CountingSink::default();
        let c = m.update_block(3, BlockAddr(1000), &mut sink);
        assert_eq!(c.indirect_blocks, 0);
        assert_eq!(c.inode_blocks, 1);
        assert_eq!(sink.blocks, 1);
        assert_eq!(m.get(3), Some(BlockAddr(1000)));
    }

    #[test]
    fn triple_indirect_update_writes_four_meta_blocks() {
        // The exact Figure 2 scenario: one update to a triple-indirect
        // block requires three indirect blocks + an inode.
        let lbn = 12 + 512 + 512 * 512 + 5;
        let mut m = ConventionalMeta::new();
        let mut sink = CountingSink::default();
        let c = m.update_block(lbn, BlockAddr(1), &mut sink);
        assert_eq!(c.indirect_blocks, 3);
        assert_eq!(c.inode_blocks, 1);
        assert_eq!(c.metadata_bytes(), 4 * BLOCK_SIZE as u64);
    }

    #[test]
    fn repeated_updates_accumulate_metadata() {
        let mut m = ConventionalMeta::new();
        let mut sink = CountingSink::default();
        for i in 0..100u64 {
            m.update_block(12 + (i % 40), BlockAddr(i), &mut sink);
        }
        // Every update rewrote 1 indirect + 1 inode.
        assert_eq!(m.total_meta_blocks, 200);
        assert_eq!(sink.blocks, 200);
    }

    #[test]
    fn distinct_subtrees_get_distinct_nodes() {
        let a = ConventionalMeta::path_nodes(12); // first single-indirect
        let b = ConventionalMeta::path_nodes(12 + 512 + 7); // double subtree
        assert_ne!(a, b);
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 2);
    }
}
