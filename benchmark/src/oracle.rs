//! The bench-side content oracle.
//!
//! Every payload the benchmark writes is a pure function of
//! `(key, version, byte position)`, so checking a read needs no stored
//! copy of what was written: the oracle keeps one small version counter
//! per 4 KiB block (objects) or one length per file (PostMark), and
//! regenerates the expected bytes on demand.

/// Size of the unit the object workloads write and version: one drive
/// block.
pub const BLOCK: usize = 4096;

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The byte stream named by `(key, version)`, from byte `start` on.
/// Word `w` of the stream is `mix(base) + w * GOLDEN` rotated, so any
/// range can be produced without producing its prefix.
fn stream_word(base: u64, w: u64) -> u64 {
    base.wrapping_add(w.wrapping_mul(GOLDEN)).rotate_left(23) ^ base
}

fn stream_base(key: u64, version: u64) -> u64 {
    mix(key.wrapping_mul(GOLDEN) ^ mix(version.wrapping_add(1)))
}

/// Calls `piece(range, bytes)` for consecutive ranges of a `len`-byte
/// window of the stream `(key, version)` that starts at byte `start`,
/// until the window is covered or `piece` returns false; returns whether
/// every call returned true.
fn walk(
    key: u64,
    version: u64,
    start: u64,
    len: usize,
    mut piece: impl FnMut(std::ops::Range<usize>, &[u8]) -> bool,
) -> bool {
    let base = stream_base(key, version);
    let (mut i, mut pos) = (0, start);
    while i < len {
        let word = stream_word(base, pos / 8).to_le_bytes();
        let within = (pos % 8) as usize;
        let take = (8 - within).min(len - i);
        if !piece(i..i + take, &word[within..within + take]) {
            return false;
        }
        i += take;
        pos += take as u64;
    }
    true
}

/// `len` bytes of the stream `(key, version)` starting at `start`.
pub fn bytes(key: u64, version: u64, start: u64, len: usize) -> Vec<u8> {
    let mut out = vec![0u8; len];
    walk(key, version, start, len, |range, src| {
        out[range].copy_from_slice(src);
        true
    });
    out
}

/// True if `data` equals bytes `start..` of the stream `(key, version)`.
pub fn matches(data: &[u8], key: u64, version: u64, start: u64) -> bool {
    walk(key, version, start, data.len(), |range, src| {
        data[range] == *src
    })
}

/// Key of block `block` of object number `obj` (object numbers are the
/// benchmark's own dense indices, not drive ObjectIDs).
pub fn block_key(obj: usize, block: usize) -> u64 {
    ((obj as u64) << 8) | block as u64
}

/// Versions of a set of fixed-shape objects, `blocks` blocks each. A
/// block's content is stream `(block_key, version)`; every write bumps
/// the version, so a stale or misplaced block can never verify.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlockVersions {
    blocks: usize,
    versions: Vec<u32>,
}

impl BlockVersions {
    /// All blocks at version 0 (what preload writes).
    pub fn new(objects: usize, blocks: usize) -> Self {
        BlockVersions {
            blocks,
            versions: vec![0; objects * blocks],
        }
    }

    /// The whole current content of one object (what preload writes, at
    /// version 0).
    pub fn object_bytes(&self, obj: usize) -> Vec<u8> {
        (0..self.blocks)
            .flat_map(|b| bytes(block_key(obj, b), u64::from(self.version(obj, b)), 0, BLOCK))
            .collect()
    }

    /// Current version of one block.
    pub fn version(&self, obj: usize, block: usize) -> u32 {
        self.versions[obj * self.blocks + block]
    }

    /// Records one more write of a block.
    pub fn bump(&mut self, obj: usize, block: usize) {
        self.versions[obj * self.blocks + block] += 1;
    }

    /// Bumps one block's version and returns the payload to write.
    pub fn next_payload(&mut self, obj: usize, block: usize) -> Vec<u8> {
        self.bump(obj, block);
        let v = self.version(obj, block);
        bytes(block_key(obj, block), u64::from(v), 0, BLOCK)
    }

    /// Takes back the bump of a write the system refused.
    pub fn undo(&mut self, obj: usize, block: usize) {
        self.versions[obj * self.blocks + block] -= 1;
    }

    /// True if `data` is `len` bytes of object `obj` starting at block
    /// `first_block`, every block at its current version.
    pub fn verify(&self, obj: usize, first_block: usize, data: &[u8], len: usize) -> bool {
        data.len() == len
            && data.chunks(BLOCK).enumerate().all(|(i, chunk)| {
                let b = first_block + i;
                b < self.blocks
                    && matches(chunk, block_key(obj, b), u64::from(self.version(obj, b)), 0)
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_is_position_independent() {
        let whole = bytes(7, 3, 0, 1000);
        for (start, len) in [(0usize, 1000usize), (1, 17), (8, 64), (13, 500), (999, 1)] {
            assert_eq!(
                bytes(7, 3, start as u64, len),
                whole[start..start + len],
                "range {start}+{len}"
            );
            assert!(matches(&whole[start..start + len], 7, 3, start as u64));
        }
    }

    #[test]
    fn streams_differ_by_key_and_version() {
        let a = bytes(1, 0, 0, 64);
        assert_ne!(a, bytes(2, 0, 0, 64));
        assert_ne!(a, bytes(1, 1, 0, 64));
        assert!(!matches(&a, 1, 1, 0));
        assert!(!matches(&a, 1, 0, 8), "shifted content must not verify");
        let mut corrupt = a.clone();
        corrupt[63] ^= 1;
        assert!(!matches(&corrupt, 1, 0, 0));
    }

    #[test]
    fn block_versions_track_writes() {
        let mut o = BlockVersions::new(4, 2);
        let v0: Vec<u8> = [
            bytes(block_key(2, 0), 0, 0, BLOCK),
            bytes(block_key(2, 1), 0, 0, BLOCK),
        ]
        .concat();
        assert!(o.verify(2, 0, &v0, 2 * BLOCK));
        assert_eq!(o.object_bytes(2), v0);
        let p = o.next_payload(2, 1);
        assert_eq!(o.version(2, 1), 1);
        assert!(!o.verify(2, 0, &v0, 2 * BLOCK), "old content is stale");
        assert!(o.verify(2, 1, &p, BLOCK));
        assert!(!o.verify(2, 0, &p, BLOCK), "wrong block");
        assert!(!o.verify(3, 1, &p, BLOCK), "wrong object");
        assert!(!o.verify(2, 1, &p[..100], BLOCK), "short read");
        o.undo(2, 1);
        assert!(o.verify(2, 0, &v0, 2 * BLOCK));
    }
}
