//! Per-object access control with the Recovery flag.
//!
//! "The ACLs associated with objects have the traditional set of flags,
//! with one addition — the Recovery flag. The Recovery flag determines
//! whether or not a given user may read (recover) an object version from
//! the history pool once it is overwritten or deleted. When this flag is
//! clear, only the device administrator may read this object version once
//! it is pushed into the history pool." (§4.1.1)

use crate::codec::Reader;
use crate::ids::UserId;
use crate::Result;

/// Permission bits of one ACL entry.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Perm(pub u8);

impl Perm {
    /// May read current object data and attributes.
    pub const READ: Perm = Perm(1);
    /// May write data, truncate, and set attributes.
    pub const WRITE: Perm = Perm(2);
    /// May change the object's ACL and delete the object.
    pub(crate) const OWNER: Perm = Perm(4);
    /// The Recovery flag: may read this object's history-pool versions.
    pub const RECOVERY: Perm = Perm(8);

    /// Read + write + owner + recovery.
    pub const ALL: Perm = Perm(15);

    /// True if `self` includes every bit of `other`.
    pub fn includes(self, other: Perm) -> bool {
        self.0 & other.0 == other.0
    }

    /// Union of two permission sets.
    pub fn union(self, other: Perm) -> Perm {
        Perm(self.0 | other.0)
    }

    /// `self` with the bits of `other` removed.
    pub fn without(self, other: Perm) -> Perm {
        Perm(self.0 & !other.0)
    }
}

/// One `(user, permissions)` pair.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AclEntry {
    /// The user this entry grants rights to.
    pub user: UserId,
    /// Granted permissions.
    pub perm: Perm,
}

impl AclEntry {
    /// Appends the five bytes of an entry, in an ACL blob and on the wire.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.user.0.to_le_bytes());
        out.push(self.perm.0);
    }

    pub(crate) fn decode(r: &mut Reader) -> Result<AclEntry> {
        Ok(AclEntry {
            user: UserId(r.u32()?),
            perm: Perm(r.u8()?),
        })
    }
}

/// An object's ACL table: an ordered list of entries, searched by user.
///
/// The table is stored in the object metadata as an opaque blob (the
/// journal layer versions it like any other metadata change), so ACL
/// history is fully recoverable too.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct AclTable {
    entries: Vec<AclEntry>,
}

impl AclTable {
    /// The default table for a newly created object: the creator gets all
    /// rights including Recovery.
    pub fn owner_default(owner: UserId) -> Self {
        AclTable {
            entries: vec![AclEntry {
                user: owner,
                perm: Perm::ALL,
            }],
        }
    }

    /// Entry for `user`, if any.
    pub(crate) fn get_user(&self, user: UserId) -> Option<AclEntry> {
        self.entries.iter().copied().find(|e| e.user == user)
    }

    /// Entry at table index `idx` (for `GetACLByIndex`).
    pub(crate) fn get_index(&self, idx: usize) -> Option<AclEntry> {
        self.entries.get(idx).copied()
    }

    /// Inserts or replaces the entry for `entry.user`. An entry with no
    /// permission bits removes the user from the table.
    pub fn set(&mut self, entry: AclEntry) {
        self.entries.retain(|e| e.user != entry.user);
        if entry.perm.0 != 0 {
            self.entries.push(entry);
        }
    }

    /// Effective permissions of `user` (empty if absent).
    pub(crate) fn perms_of(&self, user: UserId) -> Perm {
        self.get_user(user).map(|e| e.perm).unwrap_or(Perm(0))
    }

    /// Serializes the table.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + self.entries.len() * 5);
        out.extend_from_slice(&(self.entries.len() as u32).to_le_bytes());
        for e in &self.entries {
            e.encode_into(&mut out);
        }
        out
    }

    /// Deserializes a table.
    pub fn decode(buf: &[u8]) -> Result<AclTable> {
        let mut r = Reader::new(buf, "acl blob truncated");
        let mut entries = Vec::new();
        for _ in 0..r.count(5)? {
            entries.push(AclEntry::decode(&mut r)?);
        }
        Ok(AclTable { entries })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perm_algebra() {
        assert!(Perm::ALL.includes(Perm::RECOVERY));
        assert!(!Perm::READ.includes(Perm::WRITE));
        assert!(Perm::READ.union(Perm::WRITE).includes(Perm::WRITE));
        assert!(!Perm::ALL.without(Perm::RECOVERY).includes(Perm::RECOVERY));
    }

    #[test]
    fn owner_default_grants_all() {
        let t = AclTable::owner_default(UserId(3));
        assert!(t.perms_of(UserId(3)).includes(Perm::ALL));
        assert_eq!(t.perms_of(UserId(4)), Perm(0));
    }

    #[test]
    fn set_replaces_and_removes() {
        let users = |t: &AclTable| -> Vec<UserId> {
            (0..)
                .map_while(|i| t.get_index(i))
                .map(|e| e.user)
                .collect()
        };
        let mut t = AclTable::owner_default(UserId(1));
        t.set(AclEntry {
            user: UserId(2),
            perm: Perm::READ,
        });
        assert_eq!(users(&t), [UserId(1), UserId(2)]);
        // Downgrade user 1 to read-only.
        t.set(AclEntry {
            user: UserId(1),
            perm: Perm::READ,
        });
        assert_eq!(users(&t), [UserId(2), UserId(1)]);
        assert_eq!(t.perms_of(UserId(1)), Perm::READ);
        // Clearing all bits removes the entry.
        t.set(AclEntry {
            user: UserId(2),
            perm: Perm(0),
        });
        assert_eq!(users(&t), [UserId(1)]);
    }

    #[test]
    fn get_index_matches_insertion_order() {
        let mut t = AclTable::owner_default(UserId(1));
        t.set(AclEntry {
            user: UserId(9),
            perm: Perm::READ,
        });
        assert_eq!(t.get_index(0).unwrap().user, UserId(1));
        assert_eq!(t.get_index(1).unwrap().user, UserId(9));
        assert!(t.get_index(2).is_none());
    }

    #[test]
    fn encode_decode_round_trip() {
        let mut t = AclTable::owner_default(UserId(1));
        t.set(AclEntry {
            user: UserId(7),
            perm: Perm::READ.union(Perm::RECOVERY),
        });
        let d = AclTable::decode(&t.encode()).unwrap();
        assert_eq!(d, t);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(AclTable::decode(&[1]).is_err());
        assert!(AclTable::decode(&[9, 0, 0, 0, 1]).is_err());
    }
}
