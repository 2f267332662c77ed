//! Decoder for the file server's directory-object format.
//!
//! The drive stores directories as opaque objects; the format below is
//! the `s4-fs` convention (entry count, then `name, handle, kind`
//! triples). Forensics needs to *read* that namespace from the drive
//! side — at historical times, without a live file server — so the
//! codec is duplicated here rather than importing `s4-fs` (which
//! depends on this crate). The byte format is pinned by round-trip
//! tests on both sides.

use s4_core::S4Error;

/// Directory entry kind byte (the `s4-fs` convention).
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
pub type DirEntry = (String, u64, EntryKind);

/// Decodes a directory blob. An empty blob is an empty directory.
pub fn decode(data: &[u8]) -> Result<Vec<DirEntry>, S4Error> {
    if data.is_empty() {
        return Ok(Vec::new());
    }
    if data.len() < 4 {
        return Err(S4Error::BadRequest("directory blob truncated"));
    }
    let n = u32::from_le_bytes(data[0..4].try_into().unwrap()) as usize;
    let mut pos = 4;
    let mut out = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        if pos + 2 > data.len() {
            return Err(S4Error::BadRequest("directory entry truncated"));
        }
        let nl = u16::from_le_bytes(data[pos..pos + 2].try_into().unwrap()) as usize;
        pos += 2;
        if pos + nl + 9 > data.len() {
            return Err(S4Error::BadRequest("directory name truncated"));
        }
        let name = String::from_utf8(data[pos..pos + nl].to_vec())
            .map_err(|_| S4Error::BadRequest("directory name utf8"))?;
        pos += nl;
        let handle = u64::from_le_bytes(data[pos..pos + 8].try_into().unwrap());
        pos += 8;
        let kind = EntryKind::from_u8(data[pos])?;
        pos += 1;
        out.push((name, handle, kind));
    }
    Ok(out)
}

/// Encodes a directory blob (used by recovery to relink entries).
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
