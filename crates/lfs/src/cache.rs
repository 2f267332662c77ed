//! The block (buffer) cache.
//!
//! The S4 drive in the paper ran with a 128 MB buffer cache; the baselines
//! used the host page cache. [`BlockCache`] is a strict-LRU cache over log
//! blocks keyed by [`BlockAddr`], sized in blocks. Entries are immutable
//! [`crate::bytes::Bytes`] — the log never overwrites a block in place, so cached
//! contents can only become irrelevant (when a segment is reclaimed and
//! reused), handled by `invalidate_segment`.

use std::collections::{BTreeMap, HashMap};

use crate::bytes::Bytes;
use s4_clock::sync::Mutex;

use crate::layout::{BlockAddr, Geometry, SegmentId};

/// A thread-safe LRU block cache.
pub struct BlockCache {
    capacity: usize,
    inner: Mutex<Inner>,
}

struct Inner {
    /// addr -> (data, LRU generation).
    map: HashMap<BlockAddr, (Bytes, u64)>,
    /// LRU generation -> addr, oldest first.
    order: BTreeMap<u64, BlockAddr>,
    next_gen: u64,
    hits: u64,
    misses: u64,
}

impl BlockCache {
    /// Creates a cache holding up to `capacity` blocks (0 disables
    /// caching).
    pub fn new(capacity: usize) -> Self {
        BlockCache {
            capacity,
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                order: BTreeMap::new(),
                next_gen: 0,
                hits: 0,
                misses: 0,
            }),
        }
    }

    /// Looks up a block, refreshing its LRU position.
    pub fn get(&self, addr: BlockAddr) -> Option<Bytes> {
        let mut g = self.inner.lock();
        let gen = g.next_gen;
        match g.map.get_mut(&addr) {
            Some((data, old_gen)) => {
                let data = data.clone();
                let old = *old_gen;
                *old_gen = gen;
                g.next_gen += 1;
                g.order.remove(&old);
                g.order.insert(gen, addr);
                g.hits += 1;
                Some(data)
            }
            None => {
                g.misses += 1;
                None
            }
        }
    }

    /// Inserts (or refreshes) a block, evicting the least recently used
    /// entries if over capacity.
    pub fn insert(&self, addr: BlockAddr, data: Bytes) {
        if self.capacity == 0 {
            return;
        }
        let mut g = self.inner.lock();
        let gen = g.next_gen;
        g.next_gen += 1;
        if let Some((_, old)) = g.map.insert(addr, (data, gen)) {
            g.order.remove(&old);
        }
        g.order.insert(gen, addr);
        while g.map.len() > self.capacity {
            let (&oldest, &victim) = g.order.iter().next().expect("order tracks map");
            g.order.remove(&oldest);
            g.map.remove(&victim);
        }
    }

    /// Drops one block.
    pub fn invalidate(&self, addr: BlockAddr) {
        let mut g = self.inner.lock();
        if let Some((_, gen)) = g.map.remove(&addr) {
            g.order.remove(&gen);
        }
    }

    /// Drops every cached block belonging to `seg` — the records its
    /// summaries carry included — (called when a segment is reclaimed for
    /// reuse).
    pub(crate) fn invalidate_segment(&self, geo: &Geometry, seg: SegmentId) {
        let mut g = self.inner.lock();
        let victims: Vec<BlockAddr> = g
            .map
            .keys()
            .copied()
            .filter(|&a| geo.segment_of(a) == seg)
            .collect();
        for v in victims {
            if let Some((_, gen)) = g.map.remove(&v) {
                g.order.remove(&gen);
            }
        }
    }

    /// Empties the cache (used to emulate a cold cache or a crash).
    pub fn clear(&self) {
        let mut g = self.inner.lock();
        g.map.clear();
        g.order.clear();
    }

    /// Returns `(hits, misses)` since creation.
    pub fn hit_stats(&self) -> (u64, u64) {
        let g = self.inner.lock();
        (g.hits, g.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(v: u8) -> Bytes {
        Bytes::from(vec![v; 4])
    }

    /// Blocks currently cached.
    fn len(c: &BlockCache) -> usize {
        c.inner.lock().map.len()
    }

    #[test]
    fn insert_get() {
        let c = BlockCache::new(4);
        c.insert(BlockAddr(1), b(1));
        assert_eq!(c.get(BlockAddr(1)).unwrap(), b(1));
        assert!(c.get(BlockAddr(2)).is_none());
        assert_eq!(c.hit_stats(), (1, 1));
    }

    #[test]
    fn evicts_least_recently_used() {
        let c = BlockCache::new(2);
        c.insert(BlockAddr(1), b(1));
        c.insert(BlockAddr(2), b(2));
        c.get(BlockAddr(1)); // 2 is now LRU
        c.insert(BlockAddr(3), b(3));
        assert!(c.get(BlockAddr(2)).is_none(), "2 should have been evicted");
        assert!(c.get(BlockAddr(1)).is_some());
        assert!(c.get(BlockAddr(3)).is_some());
    }

    #[test]
    fn reinsert_updates_value_without_growth() {
        let c = BlockCache::new(2);
        c.insert(BlockAddr(1), b(1));
        c.insert(BlockAddr(1), b(9));
        assert_eq!(len(&c), 1);
        assert_eq!(c.get(BlockAddr(1)).unwrap(), b(9));
    }

    #[test]
    fn zero_capacity_disables() {
        let c = BlockCache::new(0);
        c.insert(BlockAddr(1), b(1));
        assert!(c.get(BlockAddr(1)).is_none());
    }

    #[test]
    fn invalidate_segment_drops_only_that_segment() {
        let geo = Geometry::compute(1_000_000, 128).unwrap();
        let c = BlockCache::new(100);
        let carried = |seg| BlockAddr::carried_by(geo.addr_of(seg, 9));
        c.insert(geo.addr_of(0, 5), b(1));
        c.insert(geo.addr_of(1, 5), b(2));
        c.insert(carried(0), b(3));
        c.insert(carried(1), b(4));
        c.invalidate_segment(&geo, 0);
        assert!(c.get(geo.addr_of(0, 5)).is_none());
        assert!(c.get(geo.addr_of(1, 5)).is_some());
        assert!(c.get(carried(0)).is_none(), "carried records go too");
        assert!(c.get(carried(1)).is_some());
    }

    #[test]
    fn clear_empties() {
        let c = BlockCache::new(10);
        c.insert(BlockAddr(1), b(1));
        c.clear();
        assert_eq!(len(&c), 0);
    }

    #[test]
    fn invalidate_single_block() {
        let c = BlockCache::new(10);
        c.insert(BlockAddr(4), b(4));
        c.insert(BlockAddr(5), b(5));
        c.invalidate(BlockAddr(4));
        assert!(c.get(BlockAddr(4)).is_none());
        assert!(c.get(BlockAddr(5)).is_some());
        // Invalidating a missing block is a no-op.
        c.invalidate(BlockAddr(99));
        assert_eq!(len(&c), 1);
    }
}
