//! The directory-object format, implemented once.
//!
//! The drive stores directories as opaque objects; the bytes are a
//! convention between their readers and writers: the file server
//! (`s4-fs`, which lists and rewrites them), forensics (which reads the
//! namespace from the drive side, at historical times, with no file
//! server mounted) and recovery (which relinks entries). All three use
//! this codec, and both writers update a blob through
//! [`update_requests`]. It lives here rather than in `s4-fs` only
//! because the one dependency edge between the two crates points
//! `s4-fs → s4-detect` and this crate cannot import its dependent.
//!
//! Format: `count:u32`, then per entry `name_len:u16 | name | handle:u64
//! | kind:u8`, little-endian. A directory belongs to whichever client
//! holds its credentials, so the blob is hostile input: it is read
//! through the bounds-checked [`Reader`] and nothing is sized by the
//! count it claims.

use s4_core::codec::Reader;
use s4_core::{ObjectId, Request, S4Error};

/// What a directory entry (and a file's attribute blob) says its object
/// is; the discriminant is the on-disk byte. `s4-fs` re-exports this as
/// its `FileKind`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum EntryKind {
    /// Regular file.
    File = 1,
    /// Directory.
    Dir = 2,
    /// Symbolic link.
    Symlink = 3,
}

impl EntryKind {
    /// Parses the on-disk kind byte.
    pub fn from_u8(v: u8) -> Result<EntryKind, S4Error> {
        match v {
            1 => Ok(EntryKind::File),
            2 => Ok(EntryKind::Dir),
            3 => Ok(EntryKind::Symlink),
            _ => Err(S4Error::BadRequest("directory entry kind")),
        }
    }
}

/// One decoded directory entry: name, target object id, kind.
pub(crate) type DirEntry = (String, u64, EntryKind);

/// Bytes of an entry with an empty name: the least a blob spends on one.
const MIN_ENTRY_BYTES: usize = 2 + 8 + 1;

/// The unit a directory update rewrites.
const BLOCK_BYTES: usize = 4096;

/// Decodes a directory blob. An empty blob is an empty directory.
pub fn decode(data: &[u8]) -> Result<Vec<DirEntry>, S4Error> {
    if data.is_empty() {
        return Ok(Vec::new());
    }
    let mut r = Reader::new(data, "directory blob truncated");
    let n = r.count(MIN_ENTRY_BYTES)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let name_len = r.u16()? as usize;
        let name = String::from_utf8(r.take(name_len)?.to_vec())
            .map_err(|_| S4Error::BadRequest("directory name utf8"))?;
        out.push((name, r.u64()?, EntryKind::from_u8(r.u8()?)?));
    }
    Ok(out)
}

/// Encodes a directory blob.
pub fn encode(entries: &[DirEntry]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + entries.len() * 24);
    out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    for (name, handle, kind) in entries {
        out.extend_from_slice(&(name.len() as u16).to_le_bytes());
        out.extend_from_slice(name.as_bytes());
        out.extend_from_slice(&handle.to_le_bytes());
        out.push(*kind as u8);
    }
    out
}

/// The requests that update directory `dir` from its stored bytes `old`
/// to the entries `new`: a `Write` of each 4 KiB block whose bytes
/// changed, then a `Truncate` if the blob shrank. A real file system
/// rewrites only the directory blocks an update touches; rewriting the
/// whole blob would version every block of a large directory on each
/// create or unlink. `old` is the blob as stored, not a re-encoding of
/// its entries: [`decode`] ignores bytes after the last entry, and the
/// update must still cut them off.
pub fn update_requests(dir: ObjectId, old: &[u8], new: &[DirEntry]) -> Vec<Request> {
    let new = encode(new);
    let old_block = |lo: usize| old.get(lo..old.len().min(lo + BLOCK_BYTES));
    let mut reqs: Vec<Request> = new
        .chunks(BLOCK_BYTES)
        .enumerate()
        .filter(|&(b, block)| old_block(b * BLOCK_BYTES) != Some(block))
        .map(|(b, block)| Request::Write {
            oid: dir,
            offset: (b * BLOCK_BYTES) as u64,
            data: block.to_vec(),
        })
        .collect();
    if old.len() > new.len() {
        reqs.push(Request::Truncate {
            oid: dir,
            len: new.len() as u64,
        });
    }
    reqs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let entries = vec![
            ("etc".to_string(), 5, EntryKind::Dir),
            ("auth.log".to_string(), 9, EntryKind::File),
            ("link".to_string(), 12, EntryKind::Symlink),
        ];
        assert_eq!(decode(&encode(&entries)).unwrap(), entries);
        assert!(decode(&[]).unwrap().is_empty());
    }

    #[test]
    fn rejects_corruption() {
        let blob = encode(&[("x".to_string(), 1, EntryKind::File)]);
        assert!(decode(&blob[..3]).is_err());
        assert!(decode(&blob[..blob.len() - 1]).is_err());
        let mut bad_kind = blob.clone();
        *bad_kind.last_mut().unwrap() = 7;
        assert!(decode(&bad_kind).is_err());
        // A count the blob cannot hold is an error, not a reservation.
        let mut huge_count = blob.clone();
        huge_count[..4].copy_from_slice(&0xFFFF_FFFFu32.to_le_bytes());
        assert!(decode(&huge_count).is_err());
    }
}
