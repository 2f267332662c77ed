//! Per-drive transaction log records for cross-shard two-phase commit.
//!
//! Each participant drive in a distributed transaction appends these
//! records to a reserved, journaled table object (the drive layer owns
//! the object; this module owns only the codec and the in-doubt fold).
//! The drive queues every record as it happens and writes none on its
//! own: the next pack of journal entries that writes anything appends
//! the whole queue to the log in one write, ahead of every other
//! object's entries, and a vote forces that append before its flush.
//! The record sequence per transaction is:
//!
//! 1. [`Prepared`] — queued *before* the sub-batch executes, capturing
//!    the pre-transaction time `t0`. It is written with the first pack
//!    that carries any of the sub-batch's effects — normally the vote's,
//!    in the same block as [`Touched`] — so it is durable in the same
//!    commit as the first of those effects, or an earlier one. A
//!    `Prepared` without [`Touched`] means an effect was made durable
//!    before the vote (a sync inside the prepare, or a commit cut at a
//!    segment end), so the sub-batch may have partially executed;
//!    recovery compensates by restoring **everything** the drive changed
//!    after `t0` (the worker holds the drive exclusively during prepare,
//!    so nothing else can have written in between).
//! 2. [`Touched`] — queued and flushed by the vote, *after* the
//!    sub-batch executed, naming the exact objects and partition names
//!    it touched. Its presence is the participant's yes-vote: effects
//!    are durable and scoped.
//! 3. [`Resolved`] — the coordinator's decision has been applied here
//!    (commit: nothing to do; abort: compensation ran). It is queued,
//!    and written by the next pack that writes anything. Once every
//!    pending transaction is resolved the drive truncates the log
//!    instead, which says the same for every record queued.
//!
//! A `Prepared` without a matching `Resolved` is an **in-doubt**
//! transaction; mount-time recovery resolves it by consulting the
//! coordinator's decision note on shard 0 (present ⇒ commit, absent ⇒
//! abort — presumed abort).
//!
//! [`Prepared`]: TxnRecord::Prepared
//! [`Touched`]: TxnRecord::Touched
//! [`Resolved`]: TxnRecord::Resolved

use s4_lfs::codec::{push_bytes, Reader};

use crate::{JournalError, Result};

/// One record of a drive's transaction log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TxnRecord {
    /// Phase-1 intent: the sub-batch of transaction `txid` is about to
    /// execute; every effect it will create is stamped strictly after
    /// `t0_us` (microseconds).
    Prepared {
        /// Transaction identifier (globally unique per array lifetime).
        txid: u64,
        /// Pre-transaction timestamp in microseconds; compensation
        /// restores state as of this instant.
        t0_us: u64,
    },
    /// Phase-1 vote: the sub-batch executed; these are the objects and
    /// partition names it touched.
    Touched {
        /// Transaction identifier.
        txid: u64,
        /// ObjectIDs written, created, deleted, or re-ACLed.
        oids: Vec<u64>,
        /// Partition names the sub-batch added.
        names: Vec<String>,
    },
    /// Phase-2 outcome applied locally (true = committed).
    Resolved {
        /// Transaction identifier.
        txid: u64,
        /// Whether the coordinator decided commit.
        committed: bool,
    },
}

impl TxnRecord {
    /// Appends the binary encoding to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            TxnRecord::Prepared { txid, t0_us } => {
                out.push(1);
                out.extend_from_slice(&txid.to_le_bytes());
                out.extend_from_slice(&t0_us.to_le_bytes());
            }
            TxnRecord::Touched { txid, oids, names } => {
                out.push(2);
                out.extend_from_slice(&txid.to_le_bytes());
                out.extend_from_slice(&(oids.len() as u32).to_le_bytes());
                for o in oids {
                    out.extend_from_slice(&o.to_le_bytes());
                }
                out.extend_from_slice(&(names.len() as u32).to_le_bytes());
                for n in names {
                    push_bytes(out, n.as_bytes());
                }
            }
            TxnRecord::Resolved { txid, committed } => {
                out.push(3);
                out.extend_from_slice(&txid.to_le_bytes());
                out.push(u8::from(*committed));
            }
        }
    }

    /// Decodes one record from `buf[*pos..]`, advancing `pos`.
    pub(crate) fn decode_from(buf: &[u8], pos: &mut usize) -> Result<TxnRecord> {
        let mut r = Reader::at(buf, *pos, "txn record truncated");
        let tag = r.u8()?;
        let txid = r.u64()?;
        let rec = match tag {
            1 => TxnRecord::Prepared {
                txid,
                t0_us: r.u64()?,
            },
            2 => {
                let n = r.count(8)?;
                let mut oids = Vec::with_capacity(n);
                for _ in 0..n {
                    oids.push(r.u64()?);
                }
                let n = r.count(4)?; // a name is at least its length
                let mut names = Vec::with_capacity(n);
                for _ in 0..n {
                    names.push(r.string()?);
                }
                TxnRecord::Touched { txid, oids, names }
            }
            3 => TxnRecord::Resolved {
                txid,
                committed: r.u8()? == 1,
            },
            _ => return Err(JournalError::Corrupt("txn record tag")),
        };
        *pos = r.pos();
        Ok(rec)
    }
}

/// Decodes a whole transaction log. The log object is journaled, so its
/// recovered content is a synced prefix of what was appended — a
/// truncated or garbled tail cannot come from a crash, only from rot or
/// tampering, and `scan` answers either with `Corrupt`: every field and
/// count is read through the bounds-checked cursor, so no stored number
/// is indexed with or allocated from.
pub fn scan(buf: &[u8]) -> Result<Vec<TxnRecord>> {
    let mut out = Vec::new();
    let mut pos = 0;
    while pos < buf.len() {
        out.push(TxnRecord::decode_from(buf, &mut pos)?);
    }
    Ok(out)
}

/// One unresolved transaction recovered from a drive's log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InDoubtTxn {
    /// Transaction identifier.
    pub txid: u64,
    /// Pre-transaction timestamp (microseconds).
    pub t0_us: u64,
    /// Exact touch scope if the vote record made it to disk; `None`
    /// means the crash hit mid-prepare and compensation must restore
    /// everything stamped after `t0_us`.
    pub touched: Option<(Vec<u64>, Vec<String>)>,
}

/// Folds a record stream into the set of in-doubt transactions: every
/// `Prepared` without a matching `Resolved`, ordered as prepared.
pub fn in_doubt(records: &[TxnRecord]) -> Vec<InDoubtTxn> {
    let mut open: Vec<InDoubtTxn> = Vec::new();
    for r in records {
        match r {
            TxnRecord::Prepared { txid, t0_us } => open.push(InDoubtTxn {
                txid: *txid,
                t0_us: *t0_us,
                touched: None,
            }),
            TxnRecord::Touched { txid, oids, names } => {
                if let Some(t) = open.iter_mut().find(|t| t.txid == *txid) {
                    t.touched = Some((oids.clone(), names.clone()));
                }
            }
            TxnRecord::Resolved { txid, .. } => open.retain(|t| t.txid != *txid),
        }
    }
    open
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<TxnRecord> {
        vec![
            TxnRecord::Prepared {
                txid: 7,
                t0_us: 1_000_000,
            },
            TxnRecord::Touched {
                txid: 7,
                oids: vec![4, 12, 9000],
                names: vec!["home".into(), "спул".into()],
            },
            TxnRecord::Resolved {
                txid: 7,
                committed: true,
            },
            TxnRecord::Prepared {
                txid: 9,
                t0_us: 2_000_000,
            },
            TxnRecord::Resolved {
                txid: 9,
                committed: false,
            },
        ]
    }

    #[test]
    fn round_trip_all_variants() {
        let mut buf = Vec::new();
        for r in samples() {
            r.encode_into(&mut buf);
        }
        assert_eq!(scan(&buf).unwrap(), samples());
    }

    #[test]
    fn truncated_input_is_an_error_not_a_panic() {
        let mut buf = Vec::new();
        for r in samples() {
            r.encode_into(&mut buf);
        }
        for cut in 1..buf.len() {
            // Either a clean shorter prefix or a loud error.
            let _ = scan(&buf[..cut]);
        }
        assert!(scan(&buf[..buf.len() - 1]).is_err());
    }

    #[test]
    fn bad_tag_rejected() {
        let mut buf = vec![0u8; 9];
        buf[0] = 77;
        assert!(scan(&buf).is_err());
    }

    #[test]
    fn hostile_count_is_an_error_not_an_allocation() {
        let mut buf = Vec::new();
        TxnRecord::Touched {
            txid: 7,
            oids: vec![4, 5],
            names: vec!["a".into()],
        }
        .encode_into(&mut buf);
        // tag 1 + txid 8 = 9: the oids count; + 4 + 2 * 8 = 29: the names count.
        for count_at in [29, 9] {
            let mut bad = buf.clone();
            bad[count_at..count_at + 4].fill(0xFF);
            assert!(
                matches!(scan(&bad), Err(JournalError::Corrupt(_))),
                "count at offset {count_at}"
            );
        }
    }

    #[test]
    fn in_doubt_folds_prepared_without_resolved() {
        let mut recs = samples();
        assert!(in_doubt(&recs).is_empty(), "all sample txns resolved");

        recs.push(TxnRecord::Prepared {
            txid: 11,
            t0_us: 3_000_000,
        });
        recs.push(TxnRecord::Touched {
            txid: 11,
            oids: vec![42],
            names: vec![],
        });
        recs.push(TxnRecord::Prepared {
            txid: 13,
            t0_us: 4_000_000,
        });
        let open = in_doubt(&recs);
        assert_eq!(open.len(), 2);
        assert_eq!(open[0].txid, 11);
        assert_eq!(open[0].touched, Some((vec![42], vec![])));
        assert_eq!(open[1].txid, 13);
        assert_eq!(open[1].touched, None, "crashed mid-prepare: blanket scope");
    }
}
