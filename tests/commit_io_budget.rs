//! The device-I/O budget of a commit, as exact request counts.
//!
//! A log commit is one `[summary | data]` device write (see
//! `s4_lfs::log`): the summary's checksum of the data, not a second
//! ordered write, is what makes a torn commit detectable. The wall-clock
//! benchmark's `disk_ios_per_op` measures the same thing end to end;
//! this gate pins the count itself, deterministically, on `MemDisk`.

use s4_array::{ArrayConfig, S4Array};
use s4_clock::{SimClock, SimDuration};
use s4_core::{
    ClientId, DriveConfig, ObjectId, Request, RequestContext, Response, S4Drive, UserId,
};
use s4_fs::RpcHandler;
use s4_simdisk::{MemDisk, TraceDisk, TraceHandle};

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

fn write_4k(h: &impl RpcHandler, oid: ObjectId) {
    let data = vec![0xA5; 4096];
    h.handle(
        &user(),
        &Request::Write {
            oid,
            offset: 0,
            data,
        },
    )
    .unwrap();
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

    drive.handle(&user(), &Request::Sync).unwrap();
    assert_eq!(io(&traces), (1, 0, 0), "an empty sync touches nothing");
}

#[test]
fn write_plus_sync_on_a_mirrored_array_is_one_write_per_mirror() {
    let (devices, traces): (Vec<Disk>, Vec<TraceHandle>) = (0..4).map(|_| traced_disk()).unzip();
    let cfg = ArrayConfig {
        mirrors: 2,
        ..ArrayConfig::default()
    };
    let array = S4Array::format(devices, DriveConfig::small_test(), cfg, clock()).unwrap();
    let oid = settled_object(&array, &traces);

    // The write lands on one shard's two members; the sync is broadcast,
    // and the other shard has nothing to commit.
    write_4k(&array, oid);
    array.handle(&user(), &Request::Sync).unwrap();
    assert_eq!(io(&traces), (2, 0, 0));
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
