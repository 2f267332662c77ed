//! Every public decoder of stored or received bytes, against hostile
//! input — hermetic, on every `cargo test`.
//!
//! The drive's promise is that it stays standing whatever its clients send
//! and whatever a crash or sector rot left on the platter, so a decoder may
//! answer garbage with an error but never with a panic, an abort (a count
//! it allocates from) or a hang. For each decoder this takes valid
//! encodings, checks that they round-trip byte for byte, then feeds it
//! every truncation, every single byte set to `00`/`7F`/`80`/`FF`, every
//! aligned four-byte field set to `FF FF FF FF`, and random buffers from
//! the in-tree xoshiro256** PRNG (`s4_workloads::Rng`): the seeds are fixed,
//! so CI is deterministic, and a failure names the decoder, the mutation
//! and the seed.
//!
//! This is the seed of ROADMAP item 20's structure-aware fuzzer; the
//! round-trip and model properties of the same codecs are in
//! `tests/properties.rs`. Core's crate-private decoders take the same
//! mutations in their own unit tests.

use std::io::{Read, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use s4_clock::{HybridTimestamp, SimDuration, SimTime};
use s4_core::{
    AclEntry, AclTable, AlertRule, AuditRecord, AuditState, ClientId, ObjectId, OpKind, Perm,
    Request, RequestContext, Response, TraceCtx, UserId, PHASE_ALERT,
};
use s4_detect::dirblob;
use s4_fs::{RpcHandler, TcpServerHandle};
use s4_journal::txn::{self, TxnRecord};
use s4_journal::{decode_sector, encode_sectors, JournalEntry, ObjectMeta, PtrChange};
use s4_lfs::summary::{Carried, Summary, SummaryEntry, NO_NEXT_SEGMENT};
use s4_lfs::{BlockAddr, BlockKind, BlockTag, Geometry, SegmentUsageTable, Superblock};
use s4_workloads::Rng;

/// A decoder under test: `Some(re-encoding)` of what it decoded, `None`
/// if it refused the bytes.
type Decoder = fn(&[u8]) -> Option<Vec<u8>>;

fn st(t: u64, s: u64) -> HybridTimestamp {
    HybridTimestamp::new(SimTime::from_micros(t), s)
}

fn entries() -> Vec<JournalEntry> {
    let change = |lbn| PtrChange {
        lbn,
        old: BlockAddr::NONE,
        new: BlockAddr(100 + lbn),
    };
    vec![
        JournalEntry::Create { stamp: st(1, 1) },
        JournalEntry::Write {
            stamp: st(2, 2),
            old_size: 0,
            new_size: 8192,
            changes: vec![change(0), change(1)],
        },
        JournalEntry::Truncate {
            stamp: st(3, 3),
            old_size: 8192,
            new_size: 4096,
            freed: vec![change(1)],
        },
        JournalEntry::SetAttr {
            stamp: st(4, 4),
            old: vec![1, 2, 3],
            new: vec![4, 5],
        },
        JournalEntry::SetAcl {
            stamp: st(5, 5),
            old: vec![],
            new: vec![9; 10],
        },
        JournalEntry::Delete { stamp: st(7, 7) },
        JournalEntry::Revive {
            stamp: st(8, 8),
            was_deleted: st(7, 7),
        },
    ]
}

fn requests() -> Vec<Request> {
    let oid = ObjectId(3);
    vec![
        Request::Read {
            oid,
            offset: 100,
            len: 200,
            time: Some(SimTime::from_secs(9)),
        },
        Request::SetAcl {
            oid,
            entry: AclEntry {
                user: UserId(5),
                perm: Perm::READ,
            },
        },
        Request::PMount {
            name: "root".into(),
            time: None,
        },
        Request::SetWindow {
            window: SimDuration::from_days(7),
        },
        Request::Batch(vec![
            Request::Create,
            Request::Write {
                oid,
                offset: 0,
                data: vec![1, 2, 3],
            },
            Request::PCreate {
                name: "vol".into(),
                oid,
            },
            Request::Sync,
        ]),
    ]
}

fn responses() -> Vec<Response> {
    vec![
        Response::Attrs(s4_core::ObjectAttrs {
            size: 10,
            created: SimTime::from_secs(1),
            modified: SimTime::from_secs(2),
            deleted: Some(SimTime::from_secs(3)),
            opaque: vec![5, 6],
        }),
        Response::Acl(Some(AclEntry {
            user: UserId(9),
            perm: Perm::ALL,
        })),
        Response::Partitions(vec![
            ("root".into(), ObjectId(3)),
            ("b".into(), ObjectId(4)),
        ]),
        Response::Batch(vec![
            Response::Created(ObjectId(7)),
            Response::Data(vec![1, 2, 3]),
            Response::NewSize(4096),
            Response::Mounted(ObjectId(3)),
            Response::Ok,
        ]),
    ]
}

/// Record `i` of a test stream: odd ones traced, every one timed.
fn audit_record(i: u64) -> AuditRecord {
    AuditRecord {
        time: SimTime::from_micros(1_000 + i),
        user: UserId(7),
        client: ClientId(66),
        op: OpKind::Write,
        ok: i.is_multiple_of(2),
        object: ObjectId(40 + i),
        arg1: i,
        arg2: 4096,
        trace: match i % 2 {
            0 => TraceCtx::default(),
            _ => TraceCtx {
                trace_id: 0xABCD + i,
                origin: 1,
                phase: 2,
            },
        },
        rpc_us: 120,
        journal_us: 10,
        lfs_us: 70,
        disk_us: 60 + i as u32,
    }
}

/// The storm rule's alert on record 2 (untraced): 24 objects.
fn alert_record() -> AuditRecord {
    AuditRecord::alert(&audit_record(2), AlertRule::RansomStorm, 24, 0)
}

fn encoded(r: &AuditRecord) -> Vec<u8> {
    let mut out = Vec::new();
    r.encode_into(&mut out);
    out
}

/// `buf` with the CRC at `4..8` recomputed over `buf[8..end]`, as `Summary`
/// (to the end of the block) and `Superblock` (to byte 96) seal theirs. A
/// valid encoding reseals to itself, which the round-trip assertion checks.
fn resealed(buf: &[u8], end: usize) -> Vec<u8> {
    let mut buf = buf.to_vec();
    if let Some(body) = buf.get(8..end) {
        let crc = s4_lfs::crc::crc32(body);
        buf[4..8].copy_from_slice(&crc.to_le_bytes());
    }
    buf
}

/// Every decoder with its valid encodings.
fn targets() -> Vec<(&'static str, Decoder, Vec<Vec<u8>>)> {
    let meta = {
        let mut m = ObjectMeta::new(99, st(5, 1));
        m.deleted = Some(st(11, 9));
        m.size = 12_345;
        m.attrs = vec![1, 2, 3, 4];
        m.acl = vec![7; 13];
        m.blocks.insert(0, BlockAddr(10));
        m.blocks.insert(2, BlockAddr(12));
        m
    };
    let txn_log = {
        let mut buf = Vec::new();
        for r in [
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
        ] {
            r.encode_into(&mut buf);
        }
        buf
    };
    let summary = Summary {
        epoch: 77,
        segment: 3,
        offset: 40,
        next_segment: NO_NEXT_SEGMENT,
        data_checksum: 0xFEED_FACE_0BAD_F00D,
        entries: (0..10)
            .map(|i| SummaryEntry {
                tag: BlockTag::new(BlockKind::Data, 100 + i, i * 7),
            })
            .collect(),
        carried: None,
    };
    // The same summary carrying a record (format revision 3). The byte
    // mutations below put `7F`/`80`/`FF` into its length (40..42), its
    // position (42..44: past the entry count) and the entry count
    // (28..32: entries that would overlap the record) — behind the CRC in
    // the resealed run.
    let carrying = Summary {
        carried: Some(Carried {
            tag: BlockTag::new(BlockKind::JournalSector, 9, 2),
            pos: 4,
            data: (1..=200).collect(),
        }),
        ..summary.clone()
    };
    let summaries = || vec![summary.encode(), carrying.encode()];
    let usage = {
        let mut t = SegmentUsageTable::new(&Geometry::compute(20_000, 16).unwrap());
        let seg = t.allocate().unwrap();
        t.note_append(seg, 7);
        t
    };
    let superblock = Superblock {
        epoch: 9,
        blocks_per_segment: 128,
        num_segments: 1000,
        cursor_segment: 5,
        cursor_block: 17,
        next_summary_epoch: 42,
        state_epoch_first: 40,
        state_epoch_last: 41,
        next_stamp_seq: 7_000,
        anchor_time_us: 123_456,
    };
    let audit_block = {
        let mut buf = Vec::new();
        (0..5).for_each(|i| audit_record(i).encode_into(&mut buf));
        buf
    };
    let dir = dirblob::encode(&[
        ("etc".into(), 5, dirblob::EntryKind::Dir),
        ("auth.log".into(), 9, dirblob::EntryKind::File),
    ]);
    let acl = {
        let mut t = AclTable::owner_default(UserId(1));
        t.set(AclEntry {
            user: UserId(2),
            perm: Perm::READ,
        });
        t
    };
    let text: Vec<u8> = (0..600u32)
        .map(|i| b"self-securing "[i as usize % 14])
        .collect();
    let mut edited = text.clone();
    edited.splice(100..120, *b"storage");
    vec![
        (
            "Request::decode",
            |b| Request::decode(b).ok().map(|r| r.encode()),
            requests().iter().map(Request::encode).collect(),
        ),
        (
            "Response::decode",
            |b| Response::decode(b).ok().map(|r| r.encode()),
            responses().iter().map(Response::encode).collect(),
        ),
        (
            "JournalEntry::decode_from",
            |b| {
                let mut out = Vec::new();
                JournalEntry::decode_from(b, &mut 0)
                    .ok()?
                    .encode_into(&mut out);
                Some(out)
            },
            entries()
                .iter()
                .map(|e| {
                    let mut out = Vec::new();
                    e.encode_into(&mut out);
                    out
                })
                .collect(),
        ),
        (
            "decode_sector",
            |b| {
                let (object, prev, entries) = decode_sector(b).ok()?;
                let sectors = encode_sectors(&entries);
                Some(sectors.first()?.finish(object, prev))
            },
            vec![encode_sectors(&entries())[0].finish(42, BlockAddr(7))],
        ),
        (
            "ObjectMeta::decode_from",
            |b| ObjectMeta::decode_from(b, &mut 0).ok().map(|m| m.encode()),
            vec![meta.encode(), ObjectMeta::new(1, st(1, 1)).encode()],
        ),
        (
            "txn::scan",
            |b| {
                let mut out = Vec::new();
                txn::scan(b)
                    .ok()?
                    .iter()
                    .for_each(|r| r.encode_into(&mut out));
                Some(out)
            },
            vec![txn_log],
        ),
        (
            "Summary::decode",
            |b| Summary::decode(b).ok().map(|s| s.encode()),
            summaries(),
        ),
        // The read path's parse of a summary it passes: no CRC in front
        // of the field reads at all.
        (
            "Summary::passing",
            |b| {
                let geo = Geometry::compute(1_000_000, 128).unwrap();
                Summary::passing(&geo, geo.addr_of(3, 40), b).map(|s| s.encode())
            },
            summaries(),
        ),
        (
            "SegmentUsageTable::decode",
            |b| SegmentUsageTable::decode(b).ok().map(|t| t.encode()),
            vec![usage.encode()],
        ),
        (
            "Superblock::decode",
            |b| Superblock::decode(b).ok().map(|s| s.encode()),
            vec![superblock.encode()],
        ),
        // The two CRC-sealed formats once more with the CRC recomputed
        // after each mutation, so hostile values reach the field reads
        // (and `Summary`'s entry count) behind the check.
        (
            "Summary::decode, resealed",
            |b| {
                Summary::decode(&resealed(b, b.len()))
                    .ok()
                    .map(|s| s.encode())
            },
            summaries(),
        ),
        (
            "Superblock::decode, resealed",
            |b| {
                Superblock::decode(&resealed(b, 96))
                    .ok()
                    .map(|s| s.encode())
            },
            vec![superblock.encode()],
        ),
        (
            "AuditRecord::decode",
            |b| AuditRecord::decode(b).ok().map(|r| encoded(&r)),
            vec![
                encoded(&audit_record(0)),
                encoded(&audit_record(1)),
                encoded(&alert_record()),
            ],
        ),
        (
            "AuditState::decode_block",
            |b| {
                let mut out = Vec::new();
                let records = AuditState::decode_block(b).ok()?;
                records.iter().for_each(|r| r.encode_into(&mut out));
                Some(out)
            },
            vec![audit_block],
        ),
        (
            "dirblob::decode",
            |b| dirblob::decode(b).ok().map(|d| dirblob::encode(&d)),
            vec![dir],
        ),
        (
            "AclTable::decode",
            |b| AclTable::decode(b).ok().map(|t| t.encode()),
            vec![acl.encode()],
        ),
        (
            "Delta::decode",
            |b| s4_delta::Delta::decode(b).ok().map(|d| d.encode()),
            vec![s4_delta::diff(&text, &edited).encode()],
        ),
        (
            "lzss::decompress",
            |b| s4_delta::decompress(b).ok().map(|d| s4_delta::compress(&d)),
            vec![s4_delta::compress(&text)],
        ),
    ]
}

/// `input` with each mutation the header lists, as `(what, bytes)`; the
/// random ones are drawn from `rng`.
fn mutations(input: &[u8], rng: &mut Rng) -> Vec<(String, Vec<u8>)> {
    let mut out = Vec::new();
    for cut in 0..input.len() {
        out.push((format!("truncation to {cut}"), input[..cut].to_vec()));
    }
    for at in 0..input.len() {
        for v in [0x00, 0x7F, 0x80, 0xFF] {
            let mut bad = input.to_vec();
            bad[at] = v;
            out.push((format!("byte {at} set to {v:#04x}"), bad));
        }
    }
    for at in (0..input.len().saturating_sub(3)).step_by(4) {
        let mut bad = input.to_vec();
        bad[at..at + 4].fill(0xFF);
        out.push((format!("field at {at} set to FF FF FF FF"), bad));
    }
    for i in 0..64 {
        let len = rng.index(input.len() + 1);
        out.push((format!("random buffer {i}"), rng.bytes(len)));
        // A valid prefix gets the random tail past the magic check that
        // stops a wholly random buffer at the door (past a CRC only the
        // resealed targets get).
        let mut tail = input.to_vec();
        let from = rng.index(input.len());
        rng.fill(&mut tail[from..]);
        out.push((format!("random tail {i} from {from}"), tail));
    }
    out
}

fn fuzz(seed: u64) {
    let mut rng = Rng::new(seed);
    for (name, decode, valid) in targets() {
        for input in &valid {
            assert_eq!(
                decode(input).as_ref(),
                Some(input),
                "{name}: a valid encoding must round-trip"
            );
            for (what, bytes) in mutations(input, &mut rng) {
                let returned = catch_unwind(AssertUnwindSafe(|| decode(&bytes)));
                assert!(
                    returned.is_ok(),
                    "{name} panicked on {what} (seed {seed:#x}): {bytes:02x?}"
                );
            }
        }
    }
}

#[test]
fn every_decoder_returns_on_fixed_seeds() {
    for seed in [0x5345_4355_5245_5334, 1, 2] {
        fuzz(seed);
    }
}

/// The audit-block decoder over hostile blocks, answer by answer: a cut
/// leaves the whole records before it, an op byte 0 ends the block,
/// and an unknown op, an `ok` byte past 1, an alert naming no known
/// rule, or an origin or phase on any other untraced record fails the
/// block. A single record's mutations reach the record and the block
/// decoder alike, and both answer the same.
#[test]
fn audit_blocks_answer_hostile_bytes_as_the_drive_wrote_them() {
    const N: usize = s4_core::RECORD_BYTES;
    let mut records: Vec<AuditRecord> = (0..6).map(audit_record).collect();
    records.push(alert_record());
    let block: Vec<u8> = records.iter().flat_map(encoded).collect();
    let decode = |b: &[u8]| AuditState::decode_block(b);
    for cut in 0..=block.len() {
        assert_eq!(decode(&block[..cut]).unwrap(), records[..cut / N]);
    }
    let with = |at: usize, byte: u8| {
        let mut bad = block.clone();
        bad[at] = byte;
        bad
    };
    for k in 0..records.len() {
        assert_eq!(
            decode(&with(k * N + 16, 0)).unwrap(),
            records[..k],
            "padding"
        );
        for (at, byte) in [(16, 0x7F), (16, 21), (17, 2)] {
            assert!(
                decode(&with(k * N + at, byte)).is_err(),
                "byte {at} = {byte}"
            );
        }
        // Origin (18) and phase (19): refused on an untraced record, any
        // value on a traced one (a phase this build does not name reads
        // as unknown).
        for at in [18, 19] {
            let answer = decode(&with(k * N + at, 0xEE));
            match records[k].trace.trace_id {
                0 => assert!(answer.is_err(), "record {k} byte {at}"),
                _ => assert_eq!(answer.unwrap().len(), records.len()),
            }
        }
    }
    // The alert (untraced, as its trigger): its origin byte names a rule,
    // and only a known one decodes; under any other phase its nonzero
    // origin is what an untraced record never carries.
    let alert = records.len() - 1;
    for origin in 0..=u8::MAX {
        let known = AlertRule::ALL.iter().any(|&r| r as u8 == origin);
        let answer = decode(&with(alert * N + 18, origin));
        assert_eq!(answer.is_ok(), known, "rule code {origin}");
    }
    for phase in (0..=u8::MAX).filter(|&p| p != PHASE_ALERT) {
        let answer = decode(&with(alert * N + 19, phase));
        assert!(answer.is_err(), "untraced phase {phase} with an origin");
    }
    let mut rng = Rng::new(0x5345_4355_5245_5334);
    for r in [&records[0], &records[1], &records[alert]] {
        for (what, bytes) in mutations(&encoded(r), &mut rng) {
            let as_block = decode(&bytes);
            let expect = match AuditRecord::decode(&bytes) {
                _ if bytes.len() < N || bytes[16] == 0 => Ok(vec![]),
                one => one.map(|r| vec![r]),
            };
            assert_eq!(as_block, expect, "{what}");
        }
    }
}

/// Answers every request that decodes with `Ok`.
struct Accepts;

impl RpcHandler for Accepts {
    fn handle(&self, _: &RequestContext, _: &Request) -> s4_core::Result<Response> {
        Ok(Response::Ok)
    }
    fn stats_text(&self) -> String {
        String::new()
    }
}

/// The request-frame decoder has no public entry point but the socket,
/// so it is fuzzed there: every mutated frame must be *answered* — a
/// server thread that panicked or aborted would drop the connection.
/// The frames go out pipelined, then the replies are read back, so the
/// exchange does not pay the accepted socket's Nagle stall once per frame.
#[test]
fn tcp_server_answers_every_malformed_request_frame() {
    // The documented frame (crates/fs/src/tcp.rs): user, client, token
    // flag and token, trace id, origin, phase, then the request.
    let mut frame = Vec::new();
    frame.extend_from_slice(&7u32.to_le_bytes());
    frame.extend_from_slice(&1u32.to_le_bytes());
    frame.push(1);
    frame.extend_from_slice(&42u64.to_le_bytes());
    frame.extend_from_slice(&9u64.to_le_bytes());
    frame.extend_from_slice(&[0, 1]);
    frame.extend_from_slice(&requests()[0].encode());

    let seed = 0x5345_4355_5245_5334;
    let mut payloads = mutations(&frame, &mut Rng::new(seed));
    payloads.push(("the valid frame".into(), frame));

    let server = TcpServerHandle::serve(Arc::new(Accepts), "127.0.0.1:0").unwrap();
    let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut wire = Vec::new();
    for (_, payload) in &payloads {
        wire.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        wire.extend_from_slice(payload);
    }
    let mut sender = stream.try_clone().unwrap();
    let sending = std::thread::spawn(move || sender.write_all(&wire));

    let mut last = Vec::new();
    for (what, _) in &payloads {
        let mut len = [0u8; 4];
        stream
            .read_exact(&mut len)
            .unwrap_or_else(|e| panic!("no reply to {what} (seed {seed:#x}): {e}"));
        last = vec![0u8; u32::from_le_bytes(len) as usize];
        stream.read_exact(&mut last).unwrap();
    }
    sending.join().unwrap().unwrap();
    assert_eq!(last, [&[0u8][..], &Response::Ok.encode()].concat());
    server.shutdown();
}
