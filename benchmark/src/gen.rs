//! Op-stream generators. Each is an endless, deterministic function of
//! its seed (the timed phase stops on a clock, so streams cannot be
//! finite traces); the system under test sees only the requests built
//! from what these yield.

use s4_workloads::Rng;

/// Seed of client `client` in repetition `rep` of a run seeded `seed`:
/// distinct streams for every client and repetition, all reproducible
/// from the one `--seed`.
pub fn stream_seed(seed: u64, rep: usize, client: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((rep as u64) << 32)
        .wrapping_add(client as u64 + 1)
}

/// `rpc_read_hot`: 90 % one-block reads, 10 % `GetAttr`, uniform keys.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadHotOp {
    Read { obj: usize, block: usize },
    GetAttr { obj: usize },
}

pub struct ReadHotGen {
    rng: Rng,
    objects: usize,
    blocks: usize,
}

impl ReadHotGen {
    pub fn new(seed: u64, objects: usize, blocks: usize) -> Self {
        ReadHotGen {
            rng: Rng::new(seed),
            objects,
            blocks,
        }
    }
}

impl Iterator for ReadHotGen {
    type Item = ReadHotOp;

    fn next(&mut self) -> Option<ReadHotOp> {
        let obj = self.rng.index(self.objects);
        Some(if self.rng.chance(9, 10) {
            ReadHotOp::Read {
                obj,
                block: self.rng.index(self.blocks),
            }
        } else {
            ReadHotOp::GetAttr { obj }
        })
    }
}

/// `rpc_write_sync_mirror`: 95 % one-block write + sync, 5 % an atomic
/// batch of four one-block writes, two on each of the client's two
/// shard halves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WriteSyncOp {
    WriteSync { obj: usize, block: usize },
    Batch { writes: [(usize, usize); 4] },
}

/// Yields indices into the caller's own object lists: `obj` of
/// `WriteSync` indexes all `objects` of the client; in a `Batch`,
/// writes 0–1 index the client's `per_shard[0]` objects and writes 2–3
/// its `per_shard[1]` objects, distinct within each pair.
pub struct WriteSyncGen {
    rng: Rng,
    objects: usize,
    per_shard: [usize; 2],
    blocks: usize,
}

impl WriteSyncGen {
    pub fn new(seed: u64, per_shard: [usize; 2], blocks: usize) -> Self {
        assert!(
            per_shard.iter().all(|&n| n >= 2),
            "a batch needs two objects per shard"
        );
        WriteSyncGen {
            rng: Rng::new(seed),
            objects: per_shard[0] + per_shard[1],
            per_shard,
            blocks,
        }
    }
}

impl Iterator for WriteSyncGen {
    type Item = WriteSyncOp;

    fn next(&mut self) -> Option<WriteSyncOp> {
        if self.rng.chance(95, 100) {
            return Some(WriteSyncOp::WriteSync {
                obj: self.rng.index(self.objects),
                block: self.rng.index(self.blocks),
            });
        }
        let mut writes = [(0, 0); 4];
        for shard in 0..2 {
            let n = self.per_shard[shard];
            let a = self.rng.index(n);
            // A different object: two writes to one object in one batch
            // would make the batch's outcome order-dependent.
            let b = (a + 1 + self.rng.index(n - 1)) % n;
            writes[shard * 2] = (a, self.rng.index(self.blocks));
            writes[shard * 2 + 1] = (b, self.rng.index(self.blocks));
        }
        Some(WriteSyncOp::Batch { writes })
    }
}

/// `drive_churn_recover`: one-block overwrites of uniform objects.
pub struct ChurnGen {
    rng: Rng,
    objects: usize,
    blocks: usize,
}

impl ChurnGen {
    pub fn new(seed: u64, objects: usize, blocks: usize) -> Self {
        ChurnGen {
            rng: Rng::new(seed),
            objects,
            blocks,
        }
    }
}

impl Iterator for ChurnGen {
    type Item = (usize, usize);

    fn next(&mut self) -> Option<(usize, usize)> {
        Some((self.rng.index(self.objects), self.rng.index(self.blocks)))
    }
}

/// One PostMark transaction (§5.1.1): a create-or-delete paired with a
/// read-or-append, equal biases, sizes uniform in 512 B – 9 KiB.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PostmarkTxn {
    pub first: PostmarkFirst,
    pub second: PostmarkSecond,
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PostmarkFirst {
    Create { file: u64, size: u64 },
    Delete { file: u64 },
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PostmarkSecond {
    /// Read the whole file; it holds `size` bytes.
    Read { file: u64, size: u64 },
    /// Append `len` bytes at offset `at`.
    Append { file: u64, at: u64, len: u64 },
}

pub const POSTMARK_MIN: u64 = 512;
pub const POSTMARK_MAX: u64 = 9 * 1024;
pub const POSTMARK_SUBDIRS: u64 = 10;

/// The PostMark file pool and transaction stream. File numbers are
/// never reused; the pool doubles as the oracle for file lengths (file
/// content is the oracle stream keyed by the file number).
pub struct PostmarkGen {
    rng: Rng,
    /// Live `(file, size)`; index-addressed for O(1) pick and remove.
    pool: Vec<(u64, u64)>,
    next_file: u64,
}

impl PostmarkGen {
    /// A pool of `nfiles` files (numbered from 0) with seeded sizes —
    /// what set-up must create before the first transaction.
    pub fn new(seed: u64, nfiles: usize) -> Self {
        let mut rng = Rng::new(seed);
        let pool = (0..nfiles as u64)
            .map(|f| (f, rng.range(POSTMARK_MIN, POSTMARK_MAX)))
            .collect();
        PostmarkGen {
            rng,
            pool,
            next_file: nfiles as u64,
        }
    }

    /// The live files and their current sizes.
    pub fn pool(&self) -> &[(u64, u64)] {
        &self.pool
    }

    /// Directory and name of a file, relative to the partition root.
    pub fn path_of(file: u64) -> (String, String) {
        (format!("pm{}", file % POSTMARK_SUBDIRS), format!("f{file}"))
    }
}

impl Iterator for PostmarkGen {
    type Item = PostmarkTxn;

    fn next(&mut self) -> Option<PostmarkTxn> {
        let first = if self.rng.chance(1, 2) || self.pool.len() <= 1 {
            let file = self.next_file;
            self.next_file += 1;
            let size = self.rng.range(POSTMARK_MIN, POSTMARK_MAX);
            self.pool.push((file, size));
            PostmarkFirst::Create { file, size }
        } else {
            let idx = self.rng.index(self.pool.len());
            PostmarkFirst::Delete {
                file: self.pool.swap_remove(idx).0,
            }
        };
        let idx = self.rng.index(self.pool.len());
        let (file, size) = self.pool[idx];
        let second = if self.rng.chance(1, 2) {
            PostmarkSecond::Read { file, size }
        } else {
            let len = self.rng.range(POSTMARK_MIN, POSTMARK_MAX);
            self.pool[idx].1 = size + len;
            PostmarkSecond::Append {
                file,
                at: size,
                len,
            }
        };
        Some(PostmarkTxn { first, second })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn same_then_different<T: PartialEq + std::fmt::Debug>(
        make: impl Fn(u64) -> Box<dyn Iterator<Item = T>>,
    ) {
        let a: Vec<T> = make(1).take(500).collect();
        let b: Vec<T> = make(1).take(500).collect();
        let c: Vec<T> = make(2).take(500).collect();
        assert_eq!(a, b, "same seed, same stream");
        assert_ne!(a, c, "different seed, different stream");
    }

    #[test]
    fn generators_are_functions_of_their_seed() {
        same_then_different(|s| Box::new(ReadHotGen::new(s, 2000, 2)));
        same_then_different(|s| Box::new(WriteSyncGen::new(s, [250, 250], 2)));
        same_then_different(|s| Box::new(ChurnGen::new(s, 4000, 2)));
        same_then_different(|s| Box::new(PostmarkGen::new(s, 50)));
        assert_ne!(stream_seed(1, 0, 0), stream_seed(1, 0, 1));
        assert_ne!(stream_seed(1, 0, 0), stream_seed(1, 1, 0));
        assert_ne!(stream_seed(1, 0, 0), stream_seed(2, 0, 0));
        assert_eq!(stream_seed(7, 3, 1), stream_seed(7, 3, 1));
    }

    #[test]
    fn read_hot_mix_is_ninety_ten() {
        let ops: Vec<_> = ReadHotGen::new(3, 2000, 2).take(20_000).collect();
        let reads = ops
            .iter()
            .filter(|o| matches!(o, ReadHotOp::Read { .. }))
            .count();
        assert!((17_600..18_400).contains(&reads), "{reads} reads of 20000");
        assert!(ops.iter().all(|o| match *o {
            ReadHotOp::Read { obj, block } => obj < 2000 && block < 2,
            ReadHotOp::GetAttr { obj } => obj < 2000,
        }));
    }

    #[test]
    fn write_sync_batches_span_both_shards_without_repeats() {
        let ops: Vec<_> = WriteSyncGen::new(5, [250, 240], 2).take(20_000).collect();
        let mut batches = 0;
        for op in &ops {
            match *op {
                WriteSyncOp::WriteSync { obj, block } => assert!(obj < 490 && block < 2),
                WriteSyncOp::Batch { writes } => {
                    batches += 1;
                    assert!(writes[0].0 < 250 && writes[1].0 < 250);
                    assert!(writes[2].0 < 240 && writes[3].0 < 240);
                    assert_ne!(writes[0].0, writes[1].0);
                    assert_ne!(writes[2].0, writes[3].0);
                }
            }
        }
        assert!((800..1200).contains(&batches), "{batches} batches of 20000");
    }

    #[test]
    fn postmark_stream_is_internally_consistent() {
        let mut gen = PostmarkGen::new(11, 40);
        let mut live: HashMap<u64, u64> = gen.pool().iter().copied().collect();
        assert_eq!(live.len(), 40);
        assert!(live
            .values()
            .all(|s| (POSTMARK_MIN..=POSTMARK_MAX).contains(s)));
        for _ in 0..5_000 {
            let txn = gen.next().unwrap();
            match txn.first {
                PostmarkFirst::Create { file, size } => {
                    assert!(live.insert(file, size).is_none(), "file numbers are unique")
                }
                PostmarkFirst::Delete { file } => {
                    assert!(live.remove(&file).is_some(), "delete of a dead file")
                }
            }
            match txn.second {
                PostmarkSecond::Read { file, size } => assert_eq!(live[&file], size),
                PostmarkSecond::Append { file, at, len } => {
                    let s = live.get_mut(&file).expect("append to a dead file");
                    assert_eq!(*s, at);
                    *s += len;
                }
            }
        }
        let mut pool: Vec<_> = gen.pool().to_vec();
        pool.sort_unstable();
        let mut expect: Vec<_> = live.into_iter().collect();
        expect.sort_unstable();
        assert_eq!(pool, expect);
        assert_eq!(PostmarkGen::path_of(23), ("pm3".into(), "f23".into()));
    }
}
