//! Rolling-hash copy/insert differencing (Xdelta-style).
//!
//! The differencer indexes the *source* (old version) with a rolling hash
//! over fixed-width seeds, then scans the *target* (new version): on a
//! seed match it extends the match in both directions and emits a `Copy`;
//! unmatched bytes accumulate into `Insert`s. Typical source-tree edits
//! (a few changed lines in a large file) collapse to a handful of copies
//! plus tiny inserts.

use std::collections::HashMap;

use crate::{DeltaError, Result};

/// Width of the rolling-hash seed.
const SEED: usize = 16;

/// One delta instruction.
#[derive(Clone, PartialEq, Eq, Debug)]
pub(crate) enum DeltaOp {
    /// Copy `len` bytes from source offset `src`.
    Copy {
        /// Source offset.
        src: u64,
        /// Length in bytes.
        len: u64,
    },
    /// Literal bytes not present in the source.
    Insert(Vec<u8>),
}

/// A complete delta: applying the ops in order against the source yields
/// the target.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Delta {
    /// Instructions, in target order.
    pub(crate) ops: Vec<DeltaOp>,
    /// Length of the target this delta produces.
    pub target_len: u64,
}

impl Delta {
    /// Size of the serialized delta in bytes.
    pub fn encoded_len(&self) -> usize {
        self.encode().len()
    }

    /// Serializes the delta.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&self.target_len.to_le_bytes());
        out.extend_from_slice(&(self.ops.len() as u32).to_le_bytes());
        for op in &self.ops {
            match op {
                DeltaOp::Copy { src, len } => {
                    out.push(1);
                    out.extend_from_slice(&src.to_le_bytes());
                    out.extend_from_slice(&len.to_le_bytes());
                }
                DeltaOp::Insert(bytes) => {
                    out.push(2);
                    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
                    out.extend_from_slice(bytes);
                }
            }
        }
        out
    }

    /// Deserializes a delta.
    pub fn decode(buf: &[u8]) -> Result<Delta> {
        if buf.len() < 12 {
            return Err(DeltaError::Corrupt("delta header"));
        }
        let target_len = u64::from_le_bytes(buf[0..8].try_into().unwrap());
        let n = u32::from_le_bytes(buf[8..12].try_into().unwrap()) as usize;
        let mut pos = 12;
        // The count is untrusted: every op costs at least 5 encoded
        // bytes, so cap the pre-allocation by what the buffer can hold.
        let mut ops = Vec::with_capacity(n.min(buf.len() / 5 + 1));
        for _ in 0..n {
            if pos >= buf.len() {
                return Err(DeltaError::Corrupt("delta op tag"));
            }
            match buf[pos] {
                1 => {
                    if pos + 17 > buf.len() {
                        return Err(DeltaError::Corrupt("copy op"));
                    }
                    let src = u64::from_le_bytes(buf[pos + 1..pos + 9].try_into().unwrap());
                    let len = u64::from_le_bytes(buf[pos + 9..pos + 17].try_into().unwrap());
                    ops.push(DeltaOp::Copy { src, len });
                    pos += 17;
                }
                2 => {
                    if pos + 5 > buf.len() {
                        return Err(DeltaError::Corrupt("insert op"));
                    }
                    let len =
                        u32::from_le_bytes(buf[pos + 1..pos + 5].try_into().unwrap()) as usize;
                    if pos + 5 + len > buf.len() {
                        return Err(DeltaError::Corrupt("insert bytes"));
                    }
                    ops.push(DeltaOp::Insert(buf[pos + 5..pos + 5 + len].to_vec()));
                    pos += 5 + len;
                }
                _ => return Err(DeltaError::Corrupt("unknown op")),
            }
        }
        Ok(Delta { ops, target_len })
    }
}

fn seed_hash(window: &[u8]) -> u64 {
    // FNV-1a over the seed window; recomputed per position (SEED is small
    // enough that true rolling isn't the bottleneck at simulation scale).
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in window {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Computes a delta turning `source` into `target`.
pub fn diff(source: &[u8], target: &[u8]) -> Delta {
    let mut delta = Delta {
        ops: Vec::new(),
        target_len: target.len() as u64,
    };
    if target.is_empty() {
        return delta;
    }
    // Index source seeds (last writer wins; collisions verified later).
    let mut index: HashMap<u64, usize> = HashMap::new();
    if source.len() >= SEED {
        let mut i = 0;
        while i + SEED <= source.len() {
            // First occurrence wins: long runs anchor at their start, so
            // identical prefixes collapse to a single long copy.
            index.entry(seed_hash(&source[i..i + SEED])).or_insert(i);
            i += SEED / 2; // stride halves the index size, matches still found
        }
    }

    let mut pending: Vec<u8> = Vec::new();
    let mut t = 0usize;
    while t < target.len() {
        let candidate = if t + SEED <= target.len() {
            index
                .get(&seed_hash(&target[t..t + SEED]))
                .copied()
                .filter(|&s| source[s..s + SEED] == target[t..t + SEED])
        } else {
            None
        };
        match candidate {
            Some(s) => {
                // Extend backward into pending literals.
                let mut s0 = s;
                let mut t0 = t;
                let mut back = 0;
                while s0 > 0 && t0 > 0 && !pending.is_empty() && source[s0 - 1] == target[t0 - 1] {
                    s0 -= 1;
                    t0 -= 1;
                    pending.pop();
                    back += 1;
                }
                let _ = back;
                // Extend forward.
                let mut len = SEED + (t - t0);
                while s0 + len < source.len()
                    && t0 + len < target.len()
                    && source[s0 + len] == target[t0 + len]
                {
                    len += 1;
                }
                if !pending.is_empty() {
                    delta
                        .ops
                        .push(DeltaOp::Insert(std::mem::take(&mut pending)));
                }
                delta.ops.push(DeltaOp::Copy {
                    src: s0 as u64,
                    len: len as u64,
                });
                t = t0 + len;
            }
            None => {
                pending.push(target[t]);
                t += 1;
            }
        }
    }
    if !pending.is_empty() {
        delta.ops.push(DeltaOp::Insert(pending));
    }
    delta
}

/// Applies `delta` to `source`, producing the target.
pub fn apply(source: &[u8], delta: &Delta) -> Result<Vec<u8>> {
    // `target_len` is untrusted; cap the pre-allocation (the vec still
    // grows as ops legitimately produce output).
    let mut out = Vec::with_capacity((delta.target_len as usize).min(1 << 24));
    for op in &delta.ops {
        match op {
            DeltaOp::Copy { src, len } => {
                let src = *src as usize;
                let len = *len as usize;
                if src + len > source.len() {
                    return Err(DeltaError::SourceOutOfRange);
                }
                out.extend_from_slice(&source[src..src + len]);
            }
            DeltaOp::Insert(bytes) => out.extend_from_slice(bytes),
        }
    }
    if out.len() as u64 != delta.target_len {
        return Err(DeltaError::Corrupt("target length mismatch"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(source: &[u8], target: &[u8]) -> Delta {
        let d = diff(source, target);
        assert_eq!(apply(source, &d).unwrap(), target, "round trip");
        let decoded = Delta::decode(&d.encode()).unwrap();
        assert_eq!(decoded, d, "codec round trip");
        d
    }

    #[test]
    fn identical_inputs_are_one_copy() {
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        let d = check(&data, &data);
        assert_eq!(d.ops.len(), 1);
        assert!(matches!(d.ops[0], DeltaOp::Copy { src: 0, .. }));
        assert!(d.encoded_len() < 64);
    }

    #[test]
    fn small_edit_in_large_file_is_compact() {
        let old: Vec<u8> = (0..50_000u32).map(|i| (i % 253) as u8).collect();
        let mut new = old.clone();
        new[25_000..25_010].copy_from_slice(b"EDITEDLINE");
        let d = check(&old, &new);
        assert!(
            d.encoded_len() < 200,
            "delta should be tiny, got {}",
            d.encoded_len()
        );
    }

    #[test]
    fn insertion_shifting_everything_still_matches() {
        let old = b"the quick brown fox jumps over the lazy dog. ".repeat(100);
        let mut new = b"PREFIX ".to_vec();
        new.extend_from_slice(&old);
        let d = check(&old, &new);
        assert!(d.encoded_len() < old.len() / 4);
    }

    #[test]
    fn unrelated_inputs_degrade_to_insert() {
        let old = vec![0u8; 1000];
        let new: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        let d = check(&old, &new);
        assert!(d.encoded_len() >= 1000);
    }

    #[test]
    fn empty_cases() {
        check(b"", b"");
        check(b"nonempty", b"");
        check(b"", b"target");
        check(b"short", b"sh");
    }

    #[test]
    fn apply_rejects_out_of_range_and_bad_len() {
        let d = Delta {
            ops: vec![DeltaOp::Copy { src: 10, len: 10 }],
            target_len: 10,
        };
        assert_eq!(
            apply(b"short", &d).unwrap_err(),
            DeltaError::SourceOutOfRange
        );
        let d2 = Delta {
            ops: vec![DeltaOp::Insert(vec![1, 2])],
            target_len: 3,
        };
        assert!(matches!(apply(b"", &d2), Err(DeltaError::Corrupt(_))));
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Delta::decode(&[1, 2, 3]).is_err());
        let good = diff(b"abcabcabcabcabcabcabc", b"abcabcabcXbcabcabcabc").encode();
        for cut in 0..good.len() {
            let _ = Delta::decode(&good[..cut]);
        }
        let mut bad = good.clone();
        bad[12] = 99; // unknown op tag
        assert!(Delta::decode(&bad).is_err());
    }
}
