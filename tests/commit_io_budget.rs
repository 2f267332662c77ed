//! The device-I/O budget of a commit, as exact request counts and bytes.
//!
//! A log commit is one `[summary | data]` device write (see
//! `crates/lfs/src/log.rs`): the summary's checksum of the data, not a second
//! ordered write, is what makes a torn commit detectable. The wall-clock
//! benchmark's `disk_ios_per_op` and `disk_bytes_per_op` measure the same
//! thing end to end; this gate pins the counts themselves,
//! deterministically, on `MemDisk`.
//!
//! The bytes are the deterministic form of the carried-record claim: a
//! commit's first short block (its journal container, nearly always)
//! rides in the summary block, so every commit below is one 4 KiB block
//! shorter than under format revision 2, whose values are quoted beside
//! each assertion.

use std::sync::Arc;

use s4_array::{ArrayConfig, ArrayTransport, S4Array};
use s4_clock::{NetworkModel, SimClock, SimDuration};
use s4_core::{
    ClientId, DriveConfig, ObjectId, Request, RequestContext, Response, S4Drive, UserId,
    AUDIT_OBJECT,
};
use s4_fs::{FileServer, RpcHandler, S4FileServer, S4FsConfig};
use s4_lfs::summary::Summary;
use s4_lfs::{BlockKind, BlockTag, BLOCK_SIZE};
use s4_simdisk::{BlockDev, MemDisk, TraceClass, TraceDisk, TraceHandle};

type Disk = TraceDisk<MemDisk>;

fn traced_disk() -> (Disk, TraceHandle) {
    let dev = TraceDisk::new(MemDisk::with_capacity_bytes(64 << 20));
    let trace = dev.handle();
    (dev, trace)
}

fn user() -> RequestContext {
    RequestContext::user(UserId(1), ClientId(1))
}

fn clock() -> SimClock {
    let clock = SimClock::new();
    clock.advance(SimDuration::from_secs(1));
    clock
}

/// Creates an object, makes the creation durable, and forgets the I/O it
/// took, so that what the traces count next is one commit and nothing
/// else.
fn settled_object(h: &impl RpcHandler, traces: &[TraceHandle]) -> ObjectId {
    let Response::Created(oid) = h.handle(&user(), &Request::Create).unwrap() else {
        panic!("create did not return an object id");
    };
    h.handle(&user(), &Request::Sync).unwrap();
    traces.iter().for_each(TraceHandle::clear);
    oid
}

fn put_4k(oid: ObjectId) -> Request {
    Request::Write {
        oid,
        offset: 0,
        data: vec![0xA5; 4096],
    }
}

fn write_4k(h: &impl RpcHandler, oid: ObjectId) {
    h.handle(&user(), &put_4k(oid)).unwrap();
}

fn set_attr(oid: ObjectId) -> Request {
    Request::SetAttr {
        oid,
        attrs: b"mode=0644".to_vec(),
    }
}

/// The byte length of every write request one device took, in order.
fn write_lens(trace: &TraceHandle) -> Vec<usize> {
    let writes = trace.records().into_iter();
    writes
        .filter(|r| r.class == TraceClass::Write)
        .map(|r| r.len)
        .collect()
}

/// Bytes written, summed over the traced devices.
fn written(traces: &[TraceHandle]) -> usize {
    traces.iter().flat_map(write_lens).sum()
}

/// `(writes, reads, syncs)` summed over the traced devices.
fn io(traces: &[TraceHandle]) -> (u64, u64, u64) {
    traces.iter().fold((0, 0, 0), |(w, r, s), t| {
        (w + t.writes(), r + t.reads(), s + t.syncs())
    })
}

#[test]
fn write_plus_sync_on_a_lone_drive_is_one_device_write() {
    let (dev, trace) = traced_disk();
    let drive = S4Drive::format(dev, DriveConfig::small_test(), clock()).unwrap();
    let traces = [trace];
    let oid = settled_object(&drive, &traces);

    write_4k(&drive, oid);
    assert_eq!(io(&traces), (0, 0, 0), "a write is buffered until the sync");
    drive.handle(&user(), &Request::Sync).unwrap();
    assert_eq!(io(&traces), (1, 0, 0), "one commit, one transfer");
    // `[summary + journal container | data]`; revision 2 wrote 12 288:
    // `[summary | data | journal container]`.
    assert_eq!(write_lens(&traces[0]), [8192]);

    drive.handle(&user(), &Request::Sync).unwrap();
    assert_eq!(io(&traces), (1, 0, 0), "an empty sync touches nothing");

    // A metadata-only commit is the summary block alone; revision 2
    // wrote 8 192: `[summary | journal container]`.
    traces[0].clear();
    let before = drive.stats().snapshot().commit_blocks;
    drive.handle(&user(), &set_attr(oid)).unwrap();
    drive.handle(&user(), &Request::Sync).unwrap();
    assert_eq!(write_lens(&traces[0]), [4096]);
    // The drive's own count of it (`s4_commit_blocks_total`).
    assert_eq!(drive.stats().snapshot().commit_blocks, before + 1);
}

/// A freshly formatted `shards × mirrors` array on traced devices
/// (device `i` is member `i % mirrors` of shard `i / mirrors`).
fn traced_format(shards: usize, mirrors: usize) -> (S4Array<Disk>, Vec<TraceHandle>) {
    let (devices, traces): (Vec<Disk>, Vec<TraceHandle>) =
        (0..shards * mirrors).map(|_| traced_disk()).unzip();
    let cfg = ArrayConfig {
        mirrors,
        ..ArrayConfig::default()
    };
    let array = S4Array::format(devices, DriveConfig::small_test(), cfg, clock()).unwrap();
    (array, traces)
}

/// A [`traced_format`] array with one settled object per shard, in shard
/// order.
fn traced_array(shards: usize, mirrors: usize) -> (S4Array<Disk>, Vec<TraceHandle>, Vec<ObjectId>) {
    let (array, traces) = traced_format(shards, mirrors);
    // `Create` is assigned round-robin.
    let oids: Vec<ObjectId> = (0..shards)
        .map(|_| settled_object(&array, &traces))
        .collect();
    let homes: Vec<usize> = oids.iter().map(|&o| array.shard_index_of(o)).collect();
    assert_eq!(
        homes,
        (0..shards).collect::<Vec<_>>(),
        "one object per shard"
    );
    (array, traces, oids)
}

#[test]
fn write_plus_sync_on_a_mirrored_array_is_one_write_per_mirror() {
    let (array, traces, oids) = traced_array(2, 2);

    // The write lands on one shard's two members; the sync is broadcast,
    // and the other shard has nothing to commit.
    write_4k(&array, oids[0]);
    array.handle(&user(), &Request::Sync).unwrap();
    assert_eq!(io(&traces), (2, 0, 0));

    // The same as one batch — every NFS op the translator sends (§4.1.2)
    // — is the same commit, not a transaction.
    traces.iter().for_each(TraceHandle::clear);
    let batch = Request::Batch(vec![put_4k(oids[0]), Request::Sync]);
    array.handle(&user(), &batch).unwrap();
    assert_eq!(io(&traces), (2, 0, 0));
    assert_eq!(io(&traces[2..]), (0, 0, 0), "nothing on the idle shard");
    // Each mirror commits what a lone drive does (revision 2: 12 288).
    assert_eq!(write_lens(&traces[0]), [8192]);
    assert_eq!(write_lens(&traces[1]), [8192]);

    // And the metadata-only batch (revision 2: 8 192 per mirror).
    traces.iter().for_each(TraceHandle::clear);
    let batch = Request::Batch(vec![set_attr(oids[0]), Request::Sync]);
    array.handle(&user(), &batch).unwrap();
    assert_eq!(write_lens(&traces[0]), [4096]);
    assert_eq!(write_lens(&traces[1]), [4096]);
    assert_eq!(written(&traces[2..]), 0, "nothing on the idle shard");
    assert!(array
        .txn_status_text()
        .starts_with("committed=0 aborted=0 "));
}

/// The transactions whose decision notes shard 0's member `k` holds, as
/// the member itself lists them (the array hides its own names from
/// `PList`).
fn notes_on<D: s4_simdisk::BlockDev + 'static>(array: &S4Array<D>, k: usize) -> Vec<u64> {
    let admin = RequestContext::admin(ClientId(0), DriveConfig::small_test().admin_token);
    let listed = array.member_drive(0, k).op_plist(&admin, None).unwrap();
    let txids = listed.iter().filter_map(|(n, _)| s4_txn::parse_note(n));
    txids.map(|t| t.0).collect()
}

/// A batch that writes two shards is a two-phase commit, and its budget
/// is its votes and its note: one log flush per participant member (the
/// vote, which carries the `Prepared` record and also satisfies the
/// batch's `Sync`) plus the decision note on each member of shard 0.
/// Each participant's `Resolved` rides its next commit that carries
/// anything else, and the note's retire rides the next note install.
#[test]
fn a_cross_shard_batch_is_its_votes_and_its_note() {
    for mirrors in [1, 2] {
        let (array, traces, oids) = traced_array(2, mirrors);
        let members: Vec<(usize, usize)> = (0..2)
            .flat_map(|s| (0..mirrors).map(move |k| (s, k)))
            .collect();
        let flushes = || -> u64 {
            let syncs =
                |&(s, k): &(usize, usize)| array.member_drive(s, k).stats().snapshot().syncs;
            members.iter().map(syncs).sum()
        };
        let pending = |txid: u64| {
            let queued =
                |&&(s, k): &&(usize, usize)| array.member_drive(s, k).txn_resolution_pending(txid);
            members.iter().filter(queued).count()
        };
        let batch = Request::Batch(vec![put_4k(oids[0]), put_4k(oids[1]), Request::Sync]);
        let before = flushes();
        array.handle(&user(), &batch).unwrap();
        let status = array.txn_status_text();
        assert!(status.starts_with("committed=1 aborted=0 "), "{status}");
        assert!(status.ends_with(" unretired=1"), "{status}");
        let wire = array.metrics_text();
        assert!(wire.contains("\ns4_txn_notes_unretired 1\n"), "{wire}");

        // The note stays on every member of shard 0, and every
        // participant member holds its resolution queued.
        let first = notes_on(&array, 0);
        assert_eq!(first.len(), 1, "one decision note");
        for k in 0..mirrors {
            assert_eq!(notes_on(&array, k), first, "member {k}");
        }
        assert_eq!(pending(first[0]), 2 * mirrors, "every resolution queued");

        // The parent flushed `Resolved` on every participant member
        // besides: 5 on 2 × 1, 10 on 2 × 2.
        let m = mirrors as u64;
        assert_eq!(flushes() - before, 3 * m, "the votes and the note");

        // A flush is one transfer. The vote's commit is `[summary +
        // journal container | data | Prepared + Touched block]`: the vote
        // appends both records in one write. The parent appended
        // `Prepared` when the prepare opened, so its vote also carried
        // the block that held `Prepared` alone, superseded in the same
        // commit: 16 384 B per participant member, 40 960 B on 2 × 1 and
        // 81 920 on 2 × 2.
        let mut want = vec![vec![12288, 8192]; mirrors];
        want.extend(vec![vec![12288]; mirrors]);
        let lens: Vec<Vec<usize>> = traces.iter().map(write_lens).collect();
        assert_eq!(lens, want, "{mirrors} mirror(s)");
        let (_, reads, syncs) = io(&traces);
        assert_eq!((reads, syncs), (0, 0));
        assert_eq!(written(&traces), [32_768, 65_536][mirrors - 1]);

        // A bare `Sync` has nothing to carry the resolutions: it writes
        // nothing, and they stay queued.
        traces.iter().for_each(TraceHandle::clear);
        array.handle(&user(), &Request::Sync).unwrap();
        assert_eq!(io(&traces), (0, 0, 0), "an empty sync touches nothing");
        assert_eq!(pending(first[0]), 2 * mirrors);

        // A write on each shard and a `Sync`: the commit that carries
        // them carries the resolutions too, one transfer per member.
        write_4k(&array, oids[0]);
        write_4k(&array, oids[1]);
        array.handle(&user(), &Request::Sync).unwrap();
        for (i, t) in traces.iter().enumerate() {
            assert_eq!(t.writes(), 1, "member {i}: one commit, one transfer");
        }
        assert_eq!(pending(first[0]), 0, "every resolution durable");
        assert_eq!(notes_on(&array, 0), first, "the note waits for a note");

        // The next cross-shard batch retires the first note inside its own
        // note install: the same three flushes per mirror, no transfer of
        // its own, and no byte more than the first batch, because the
        // install adds the new note and drops the old one in one rewrite
        // of the partition table. The parent wrote the table three times
        // (`PCreate`, then `PDelete`'s new table and its truncated tail),
        // [16 384, 16 384] on every member of shard 0 and [16 384] on
        // every member of shard 1: 49 152 B on 2 × 1. On 2 × 2 shard 0's
        // second member, four blocks earlier in its log, had its vote cut
        // at a segment end, [8 192, 12 288, 16 384]: 102 400 B.
        traces.iter().for_each(TraceHandle::clear);
        let before = flushes();
        array.handle(&user(), &batch).unwrap();
        assert_eq!(flushes() - before, 3 * m, "the retire paid no flush");
        let lens: Vec<Vec<usize>> = traces.iter().map(write_lens).collect();
        let mut want = vec![vec![12288, 8192]; mirrors];
        want.extend(vec![vec![12288]; mirrors]);
        assert_eq!(lens, want, "{mirrors} mirror(s)");
        assert_eq!(written(&traces), [32_768, 65_536][mirrors - 1]);
        let second = notes_on(&array, 0);
        assert_eq!(second.len(), 1, "the first note retired: {second:?}");
        assert_ne!(second, first);
        for k in 0..mirrors {
            assert_eq!(notes_on(&array, k), second, "member {k}");
        }
        let status = array.txn_status_text();
        assert!(status.starts_with("committed=2 aborted=0 "), "{status}");
        assert!(status.ends_with(" unretired=1"), "{status}");
    }
}

/// The NFS translator on an array: a file is born on its directory's
/// shard, because its `Create` rides with a `GetAttr` of the directory,
/// so the batch that links it (`[SetAttr(file), Write(dir), Sync]`) and
/// the one that unlinks it (`[Delete(file), Write(dir), Sync]`) write
/// that shard alone: one device write per mirror each, none on the other
/// shard, and no transaction. The directories are two mounted file
/// systems' roots, one per shard (a mount's lone `Create` is placed
/// round-robin).
///
/// Each directory's commits are what a lone drive writes: 8 192 B for
/// the create (`[summary + journal container | directory block]`) and
/// 12 288 B for the remove, per mirror.
///
/// The parent placed every `Create` round-robin, which put each file
/// here on the other shard, so each of the four batches was a two-phase
/// commit (4 committed, 1 note unretired). Writes per device, shard 0's
/// members first, on 2 × 1: create in shard 1's directory `[2, 1]`
/// (36 864 B), remove `[2, 1]` (57 344 B); create in shard 0's
/// `[3, 1]` (57 344 B, one vote cut at a segment end), remove `[2, 1]`
/// (57 344 B). On 2 × 2: `[2, 2, 1, 1]` (73 728 B), `[2, 2, 1, 1]`
/// (114 688 B), `[3, 2, 1, 1]` (110 592 B), `[2, 3, 1, 1]` (118 784 B).
#[test]
fn a_file_is_created_and_removed_on_its_directorys_shard() {
    for mirrors in [1, 2] {
        let (array, traces) = traced_format(2, mirrors);
        let array = Arc::new(array);
        let mount = |name: &str| {
            let transport = ArrayTransport::new(array.clone(), NetworkModel::free());
            S4FileServer::mount(transport, user(), name, S4FsConfig::default()).unwrap()
        };
        let volumes = [mount("vol0"), mount("vol1")];
        let lens = || -> Vec<Vec<usize>> { traces.iter().map(write_lens).collect() };
        // Shard 1's directory first: round-robin would put each file on
        // the other shard.
        for (s, fs) in volumes.iter().enumerate().rev() {
            let dir = fs.root();
            assert_eq!(array.shard_index_of(ObjectId(dir)), s, "a root per shard");
            // One write of `bytes` on each member of shard `s`, none
            // elsewhere.
            let only_here = |bytes: usize| -> Vec<Vec<usize>> {
                let on = |i: usize| {
                    if i / mirrors == s {
                        vec![bytes]
                    } else {
                        vec![]
                    }
                };
                (0..2 * mirrors).map(on).collect()
            };

            traces.iter().for_each(TraceHandle::clear);
            let file = fs.create(dir, "f").unwrap();
            assert_eq!(
                array.shard_index_of(ObjectId(file)),
                s,
                "beside its directory"
            );
            assert_eq!(
                lens(),
                only_here(8192),
                "create, shard {s}, {mirrors} mirror(s)"
            );

            traces.iter().for_each(TraceHandle::clear);
            fs.remove(dir, "f").unwrap();
            assert_eq!(
                lens(),
                only_here(12288),
                "remove, shard {s}, {mirrors} mirror(s)"
            );
        }
        let status = array.txn_status_text();
        assert!(status.starts_with("committed=0 aborted=0 "), "{status}");
    }
}

#[test]
fn forced_anchor_of_a_ten_object_drive_fits_three_writes_and_a_sync() {
    let (dev, trace) = traced_disk();
    let drive = S4Drive::format(dev, DriveConfig::small_test(), clock()).unwrap();
    for _ in 0..10 {
        let Response::Created(oid) = drive.handle(&user(), &Request::Create).unwrap() else {
            panic!("create did not return an object id");
        };
        write_4k(&drive, oid);
    }
    drive.handle(&user(), &Request::Sync).unwrap();
    trace.clear();

    // What the anchor itself buffers, the system-state batch, and the
    // superblock behind its barrier.
    drive.force_anchor().unwrap();
    let (writes, reads, syncs) = io(&[trace]);
    assert!(writes <= 3, "anchor took {writes} writes");
    assert_eq!((reads, syncs), (0, 1));
}

/// Every block tag the traced writes carried: each log commit is one
/// `[summary | data]` write, and its summary names its blocks (and the
/// record riding in the summary itself). Superblock writes are a sector.
fn written_tags(drive: &S4Drive<Disk>, trace: &TraceHandle) -> Vec<BlockTag> {
    let mut tags = Vec::new();
    for w in trace.records() {
        if w.class != TraceClass::Write || w.len < BLOCK_SIZE {
            continue;
        }
        let mut summary = vec![0; BLOCK_SIZE];
        drive.log().device().read(w.sector, &mut summary).unwrap();
        let summary = Summary::decode(&summary).unwrap();
        tags.extend(summary.entries.iter().map(|e| e.tag));
        tags.extend(summary.carried.map(|c| c.tag));
    }
    tags
}

/// A read writes nothing but its record, and a request's record is one
/// fixed-size record in one stream, the audit log: `n` reads and an
/// anchor write ⌊n / records-per-block⌋ reserved-stream blocks, every
/// one of them the audit log's and full — the anchor carries the tail.
#[test]
fn reads_write_one_audit_stream_of_fixed_size_records() {
    let (dev, trace) = traced_disk();
    let drive = S4Drive::format(dev, DriveConfig::small_test(), clock()).unwrap();
    let oid = settled_object(&drive, std::slice::from_ref(&trace));
    drive.force_anchor().unwrap();
    trace.clear();

    let n: usize = 150;
    for _ in 0..n {
        let read = Request::Read {
            oid,
            offset: 0,
            len: 64,
            time: None,
        };
        drive.handle(&user(), &read).unwrap();
    }
    drive.force_anchor().unwrap();

    let per_block = BLOCK_SIZE / s4_core::RECORD_BYTES;
    let streams: Vec<u64> = written_tags(&drive, &trace)
        .into_iter()
        .filter(|t| t.kind == BlockKind::Audit)
        .map(|t| t.object)
        .collect();
    assert_eq!(streams.len(), n / per_block, "{streams:?}");
    assert!(streams.iter().all(|&o| o == AUDIT_OBJECT.0), "{streams:?}");
}

/// A `Read` of the audit object reads the blocks its range covers and no
/// others. The stream is positional — block `i` at byte `i × 4 096`, then
/// the buffered tail — so a cold one-block read at any offset is one
/// device read request, and a read of the tail is none.
#[test]
fn a_chunk_of_the_audit_log_reads_only_its_blocks() {
    let (dev, trace) = traced_disk();
    let config = DriveConfig::small_test();
    let drive = S4Drive::format(dev, config, clock()).unwrap();
    let oid = settled_object(&drive, std::slice::from_ref(&trace));
    let read = Request::Read {
        oid,
        offset: 0,
        len: 64,
        time: None,
    };
    for _ in 0..650 {
        drive.handle(&user(), &read).unwrap();
    }
    // An orderly remount: every audit block anchored, none cached.
    let drive = S4Drive::mount(drive.unmount().unwrap(), config, clock()).unwrap();
    let admin = RequestContext::admin(ClientId(0), config.admin_token);
    let chunk = |offset, len| {
        let req = Request::Read {
            oid: AUDIT_OBJECT,
            offset,
            len,
            time: None,
        };
        match drive.handle(&admin, &req).unwrap() {
            Response::Data(d) => d,
            other => panic!("unexpected {other:?}"),
        }
    };
    let b = BLOCK_SIZE as u64;
    let mut got = Vec::new();
    for (offset, len, reads) in [
        (0, b, 1),
        (5 * b + 1000, 64, 1),
        (9 * b + 4000, 96, 1),
        (2 * b + 4000, 200, 2),
        (u64::MAX, 64, 0),
    ] {
        trace.clear();
        got.push((offset, len, chunk(offset, len)));
        assert_eq!(trace.reads(), reads, "offset {offset} len {len}");
    }
    // The tail: the anchor carried it, and mount restored it to memory.
    let whole = chunk(0, u64::MAX);
    trace.clear();
    assert_eq!(chunk(whole.len() as u64 - 68, 68).len(), 68);
    assert_eq!(trace.reads(), 0, "the tail is in memory");
    for (offset, len, bytes) in got {
        let start = (offset as usize).min(whole.len());
        let end = (start + len as usize).min(whole.len());
        assert_eq!(bytes, whole[start..end], "offset {offset} len {len}");
    }
}
