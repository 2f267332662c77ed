//! The object metadata record and its checkpoint codec.
//!
//! [`ObjectMeta`] is the drive's in-memory "inode" for one object: sizes,
//! stamps, opaque client attributes, the encoded ACL table, the sparse
//! logical-block map, and the head of the object's journal-sector chain.
//! Checkpoints serialize the whole record; unlike conventional journaling,
//! checkpointing never prunes journal space — only aging may prune
//! (§4.2.2).

use std::collections::BTreeMap;

use s4_clock::HybridTimestamp;
use s4_lfs::codec::{push_bytes, push_stamp, Reader};
use s4_lfs::BlockAddr;

use crate::{JournalError, Result};

const MAGIC: u32 = 0x5334_4D54; // "S4MT"

/// One object's metadata.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct ObjectMeta {
    /// Object identifier (drive-assigned, §4.1).
    pub id: u64,
    /// Stamp of the creating mutation.
    pub created: HybridTimestamp,
    /// Stamp of the most recent mutation.
    pub modified: HybridTimestamp,
    /// Set when the live object was deleted (versions remain in the
    /// history pool).
    pub deleted: Option<HybridTimestamp>,
    /// Current size in bytes.
    pub size: u64,
    /// Opaque attribute space for client file systems (§4.1: "objects
    /// also have ... opaque attribute space").
    pub attrs: Vec<u8>,
    /// Encoded ACL table (interpreted by the drive's access-control
    /// layer).
    pub acl: Vec<u8>,
    /// Sparse logical-block map: logical block number → log address.
    pub blocks: BTreeMap<u64, BlockAddr>,
    /// Newest journal sector of this object's backward chain
    /// ([`BlockAddr::NONE`] if nothing has been packed to disk yet).
    pub journal_head: BlockAddr,
}

impl ObjectMeta {
    /// Creates metadata for a newly created object.
    pub fn new(id: u64, created: HybridTimestamp) -> Self {
        ObjectMeta {
            id,
            created,
            modified: created,
            deleted: None,
            size: 0,
            attrs: Vec::new(),
            acl: Vec::new(),
            blocks: BTreeMap::new(),
            journal_head: BlockAddr::NONE,
        }
    }

    /// True if the live object exists (created and not deleted).
    pub fn is_live(&self) -> bool {
        self.deleted.is_none()
    }

    /// Serializes the record (checkpoint / anchor format).
    pub fn encode(&self) -> Vec<u8> {
        let mut out =
            Vec::with_capacity(96 + self.attrs.len() + self.acl.len() + self.blocks.len() * 16);
        out.extend_from_slice(&MAGIC.to_le_bytes());
        out.extend_from_slice(&self.id.to_le_bytes());
        push_stamp(&mut out, self.created);
        push_stamp(&mut out, self.modified);
        match self.deleted {
            Some(d) => {
                out.push(1);
                push_stamp(&mut out, d);
            }
            None => out.push(0),
        }
        out.extend_from_slice(&self.size.to_le_bytes());
        push_bytes(&mut out, &self.attrs);
        push_bytes(&mut out, &self.acl);
        out.extend_from_slice(&(self.blocks.len() as u32).to_le_bytes());
        for (&lbn, &addr) in &self.blocks {
            out.extend_from_slice(&lbn.to_le_bytes());
            out.extend_from_slice(&addr.0.to_le_bytes());
        }
        out.extend_from_slice(&self.journal_head.0.to_le_bytes());
        out
    }

    /// Deserializes a record from `buf[*pos..]`, advancing `pos`.
    pub fn decode_from(buf: &[u8], pos: &mut usize) -> Result<ObjectMeta> {
        let mut r = Reader::at(buf, *pos, "object meta truncated");
        if r.u32()? != MAGIC {
            return Err(JournalError::Corrupt("object meta magic"));
        }
        let id = r.u64()?;
        let created = r.stamp()?;
        let modified = r.stamp()?;
        let deleted = if r.u8()? == 1 { Some(r.stamp()?) } else { None };
        let size = r.u64()?;
        let attrs = r.bytes()?.to_vec();
        let acl = r.bytes()?.to_vec();
        let mut blocks = BTreeMap::new();
        for _ in 0..r.count(16)? {
            let lbn = r.u64()?;
            blocks.insert(lbn, BlockAddr(r.u64()?));
        }
        let journal_head = BlockAddr(r.u64()?);
        *pos = r.pos();
        Ok(ObjectMeta {
            id,
            created,
            modified,
            deleted,
            size,
            attrs,
            acl,
            blocks,
            journal_head,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s4_clock::SimTime;

    fn sample() -> ObjectMeta {
        let mut m = ObjectMeta::new(99, HybridTimestamp::new(SimTime::from_micros(5), 1));
        m.modified = HybridTimestamp::new(SimTime::from_micros(9), 4);
        m.size = 12_345;
        m.attrs = vec![1, 2, 3, 4];
        m.acl = vec![7; 33];
        m.blocks.insert(0, BlockAddr(10));
        m.blocks.insert(2, BlockAddr(12));
        m.journal_head = BlockAddr(777);
        m
    }

    #[test]
    fn round_trip() {
        let m = sample();
        let buf = m.encode();
        let mut pos = 0;
        assert_eq!(ObjectMeta::decode_from(&buf, &mut pos).unwrap(), m);
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn round_trip_deleted() {
        let mut m = sample();
        m.deleted = Some(HybridTimestamp::new(SimTime::from_micros(11), 9));
        let buf = m.encode();
        let mut pos = 0;
        assert_eq!(ObjectMeta::decode_from(&buf, &mut pos).unwrap(), m);
    }

    #[test]
    fn multiple_records_stream() {
        let a = sample();
        let mut b = sample();
        b.id = 100;
        let mut buf = a.encode();
        buf.extend(b.encode());
        let mut pos = 0;
        assert_eq!(ObjectMeta::decode_from(&buf, &mut pos).unwrap().id, 99);
        assert_eq!(ObjectMeta::decode_from(&buf, &mut pos).unwrap().id, 100);
    }

    #[test]
    fn truncation_is_an_error() {
        let buf = sample().encode();
        for cut in 0..buf.len() {
            let mut pos = 0;
            assert!(ObjectMeta::decode_from(&buf[..cut], &mut pos).is_err());
        }
    }

    #[test]
    fn fresh_meta_is_live_and_empty() {
        let m = ObjectMeta::new(1, HybridTimestamp::ZERO);
        assert!(m.is_live());
        assert!(m.blocks.is_empty());
        assert!(m.journal_head.is_none());
    }
}
