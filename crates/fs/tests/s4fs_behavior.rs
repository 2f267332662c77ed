//! Behavioral tests for the S4 client translator: NFS semantics,
//! caching, time travel at the file-system level.

use std::sync::Arc;

use s4_clock::{NetworkModel, SimClock, SimDuration};
use s4_core::{AclEntry, ClientId, DriveConfig, ObjectId, Perm, RequestContext, S4Drive, UserId};
use s4_fs::{FileKind, FileServer, FsError, LoopbackTransport, S4FileServer, S4FsConfig};
use s4_simdisk::MemDisk;

type Fs = S4FileServer<LoopbackTransport<MemDisk>>;

fn setup() -> (Fs, Arc<S4Drive<MemDisk>>, SimClock) {
    let clock = SimClock::new();
    clock.advance(SimDuration::from_secs(1));
    let drive = Arc::new(
        S4Drive::format(
            MemDisk::with_capacity_bytes(64 << 20),
            DriveConfig::small_test(),
            clock.clone(),
        )
        .unwrap(),
    );
    let fs = S4FileServer::mount(
        LoopbackTransport::new(drive.clone(), NetworkModel::free()),
        RequestContext::user(UserId(1), ClientId(1)),
        "t",
        S4FsConfig::default(),
    )
    .unwrap();
    (fs, drive, clock)
}

#[test]
fn nested_directories_and_path_resolution() {
    let (fs, _d, _c) = setup();
    let root = fs.root();
    let a = fs.mkdir(root, "a").unwrap();
    let b = fs.mkdir(a, "b").unwrap();
    let f = fs.create(b, "deep.txt").unwrap();
    fs.write(f, 0, b"found me").unwrap();
    assert_eq!(fs.resolve_path("a/b/deep.txt").unwrap(), f);
    assert_eq!(fs.read(f, 0, 64).unwrap(), b"found me");
    assert_eq!(
        fs.resolve_path("a/nope/deep.txt").unwrap_err(),
        FsError::NotFound
    );
}

#[test]
fn create_rejects_duplicates_and_bad_names() {
    let (fs, _d, _c) = setup();
    let root = fs.root();
    fs.create(root, "x").unwrap();
    assert_eq!(fs.create(root, "x").unwrap_err(), FsError::Exists);
    assert_eq!(fs.mkdir(root, "x").unwrap_err(), FsError::Exists);
    assert!(matches!(fs.create(root, "a/b"), Err(FsError::Invalid(_))));
    assert!(matches!(fs.create(root, ""), Err(FsError::Invalid(_))));
}

#[test]
fn symlinks_round_trip() {
    let (fs, _d, _c) = setup();
    let root = fs.root();
    let l = fs.symlink(root, "link", "target/path").unwrap();
    assert_eq!(fs.readlink(l).unwrap(), "target/path");
    let attr = fs.getattr(l).unwrap();
    assert_eq!(attr.kind, FileKind::Symlink);
    // readlink on a file fails.
    let f = fs.create(root, "plain").unwrap();
    assert!(matches!(fs.readlink(f), Err(FsError::Invalid(_))));
}

#[test]
fn rename_within_and_across_directories() {
    let (fs, _d, _c) = setup();
    let root = fs.root();
    let d1 = fs.mkdir(root, "d1").unwrap();
    let d2 = fs.mkdir(root, "d2").unwrap();
    let f = fs.create(d1, "file").unwrap();
    fs.write(f, 0, b"payload").unwrap();

    // Same-directory rename.
    fs.rename(d1, "file", d1, "renamed").unwrap();
    assert!(fs.lookup(d1, "file").is_err());
    assert_eq!(fs.lookup(d1, "renamed").unwrap(), f);

    // Cross-directory rename with overwrite.
    let victim = fs.create(d2, "dest").unwrap();
    fs.write(victim, 0, b"doomed").unwrap();
    fs.rename(d1, "renamed", d2, "dest").unwrap();
    assert_eq!(fs.lookup(d2, "dest").unwrap(), f);
    assert_eq!(fs.read(f, 0, 64).unwrap(), b"payload");
    assert!(fs.readdir(d1).unwrap().is_empty());

    // Same-directory rename with overwrite: one entry left, the victim gone.
    let victim = fs.create(d2, "old").unwrap();
    fs.rename(d2, "dest", d2, "old").unwrap();
    assert_eq!(
        fs.readdir(d2).unwrap(),
        vec![("old".to_string(), f, FileKind::File)]
    );
    assert_eq!(fs.getattr(victim).unwrap_err(), FsError::NotFound);
}

/// A rename the drive refuses half-way must not cost the file its name:
/// the target directory is updated before the source, in one batch, so a
/// denied target write leaves `a/f` where it was.
#[test]
fn denied_cross_directory_rename_keeps_the_name() {
    let (fs, drive, _c) = setup();
    let ctx = RequestContext::user(UserId(1), ClientId(1));
    let a = fs.mkdir(fs.root(), "a").unwrap();
    let b = fs.mkdir(fs.root(), "b").unwrap();
    let f = fs.create(a, "f").unwrap();
    let no_write = AclEntry {
        user: UserId(1),
        perm: Perm::ALL.without(Perm::WRITE),
    };
    drive.op_set_acl(&ctx, ObjectId(b), no_write).unwrap();
    assert_eq!(fs.rename(a, "f", b, "g").unwrap_err(), FsError::Denied);

    let fresh = S4FileServer::mount(
        LoopbackTransport::new(drive, NetworkModel::free()),
        RequestContext::user(UserId(1), ClientId(2)),
        "t",
        S4FsConfig::default(),
    )
    .unwrap();
    assert_eq!(fresh.resolve_path("a/f"), Ok(f), "the source name is gone");
    assert_eq!(fresh.resolve_path("b/g"), Err(FsError::NotFound));
    // The translator that was refused sees the same thing.
    assert_eq!(fs.lookup(a, "f"), Ok(f));
}

#[test]
fn attr_and_dir_caches_are_coherent_after_mutations() {
    let (fs, _d, _c) = setup();
    let root = fs.root();
    let f = fs.create(root, "grow.txt").unwrap();
    // Warm the caches.
    assert_eq!(fs.getattr(f).unwrap().size, 0);
    assert_eq!(fs.readdir(root).unwrap().len(), 1);
    // Mutate and observe coherent results.
    fs.write(f, 0, b"0123456789").unwrap();
    assert_eq!(fs.getattr(f).unwrap().size, 10);
    fs.truncate(f, 4).unwrap();
    assert_eq!(fs.getattr(f).unwrap().size, 4);
    fs.remove(root, "grow.txt").unwrap();
    assert!(fs.readdir(root).unwrap().is_empty());
    assert!(fs.lookup(root, "grow.txt").is_err());
}

#[test]
fn directory_time_travel_shows_old_entries_and_sizes() {
    let (fs, _d, clock) = setup();
    let root = fs.root();
    let f1 = fs.create(root, "one").unwrap();
    fs.write(f1, 0, b"aaaa").unwrap();
    let t1 = fs.now();
    clock.advance(SimDuration::from_secs(10));
    fs.remove(root, "one").unwrap();
    let f2 = fs.create(root, "two").unwrap();
    fs.write(f2, 0, b"bbbbbbbb").unwrap();

    // Now: only "two".
    let names_now: Vec<String> = fs
        .readdir(root)
        .unwrap()
        .into_iter()
        .map(|(n, _, _)| n)
        .collect();
    assert_eq!(names_now, vec!["two"]);
    // Then: only "one", with its old size.
    let then = fs.readdir_at(root, t1).unwrap();
    assert_eq!(then.len(), 1);
    assert_eq!(then[0].0, "one");
    let old_attr = fs.getattr_at(then[0].1, t1).unwrap();
    assert_eq!(old_attr.size, 4);
    assert_eq!(fs.read_at(then[0].1, 0, 16, t1).unwrap(), b"aaaa");
}

#[test]
fn two_mounts_share_one_drive() {
    let (fs, drive, _c) = setup();
    let root = fs.root();
    let f = fs.create(root, "shared").unwrap();
    fs.write(f, 0, b"from-mount-1").unwrap();

    // A second client mounts the same partition and sees the file.
    let fs2 = S4FileServer::mount(
        LoopbackTransport::new(drive, NetworkModel::free()),
        RequestContext::user(UserId(1), ClientId(2)),
        "t",
        S4FsConfig::default(),
    )
    .unwrap();
    let f2 = fs2.resolve_path("shared").unwrap();
    assert_eq!(f2, f);
    assert_eq!(fs2.read(f2, 0, 64).unwrap(), b"from-mount-1");
}

#[test]
fn acl_denies_foreign_user_through_the_fs_layer() {
    let (fs, drive, _c) = setup();
    let root = fs.root();
    let f = fs.create(root, "private").unwrap();
    fs.write(f, 0, b"mine").unwrap();

    // A different *user* (not just client) is denied by the drive's ACLs.
    let other = S4FileServer::mount(
        LoopbackTransport::new(drive, NetworkModel::free()),
        RequestContext::user(UserId(99), ClientId(3)),
        "t",
        S4FsConfig::default(),
    )
    .unwrap();
    let fh = other.resolve_path("private");
    // Lookup reads the directory (owned by user 1): denied outright.
    assert!(matches!(fh, Err(FsError::Denied)));
}

/// A client holding a directory's credentials can write anything into
/// it; the next translator to list it gets an error, not an allocation
/// sized by the blob's own entry count.
#[test]
fn hostile_directory_count_is_an_error_not_an_allocation() {
    let (fs, drive, _c) = setup();
    let dir = fs.mkdir(fs.root(), "d").unwrap();
    fs.create(dir, "f").unwrap();
    fs.write(dir, 0, &0xFFFF_FFFFu32.to_le_bytes()).unwrap();

    let fs2 = S4FileServer::mount(
        LoopbackTransport::new(drive, NetworkModel::free()),
        RequestContext::user(UserId(1), ClientId(2)),
        "t",
        S4FsConfig::default(),
    )
    .unwrap();
    assert!(matches!(fs2.readdir(dir), Err(FsError::Storage(_))));
    // The translator is still serving.
    assert_eq!(fs2.readdir(fs2.root()).unwrap().len(), 1);
}

#[test]
fn unsynced_writes_are_lost_on_crash_synced_ones_are_not() {
    // NFSv2 semantics end at the Sync boundary: with sync_per_op off,
    // a crash loses buffered mutations; with it on, nothing is lost.
    let clock = SimClock::new();
    clock.advance(SimDuration::from_secs(1));
    let drive = Arc::new(
        S4Drive::format(
            MemDisk::with_capacity_bytes(64 << 20),
            DriveConfig::small_test(),
            clock.clone(),
        )
        .unwrap(),
    );
    let fs = S4FileServer::mount(
        LoopbackTransport::new(drive.clone(), NetworkModel::free()),
        RequestContext::user(UserId(1), ClientId(1)),
        "crashy",
        S4FsConfig { sync_per_op: false },
    )
    .unwrap();
    let root = fs.root();
    let f = fs.create(root, "durable").unwrap();
    fs.write(f, 0, b"synced bytes").unwrap();
    // Make this much durable explicitly.
    drive
        .op_sync(&RequestContext::user(UserId(1), ClientId(1)))
        .unwrap();
    // Unsynced follow-up.
    fs.write(f, 0, b"VOLATILE!!!!").unwrap();
    drop(fs);

    let dev = Arc::into_inner(drive).unwrap().crash();
    let d2 = Arc::new(S4Drive::mount(dev, DriveConfig::small_test(), SimClock::new()).unwrap());
    let fs2 = S4FileServer::mount(
        LoopbackTransport::new(d2, NetworkModel::free()),
        RequestContext::user(UserId(1), ClientId(1)),
        "crashy",
        S4FsConfig::default(),
    )
    .unwrap();
    let f2 = fs2.resolve_path("durable").unwrap();
    assert_eq!(fs2.read(f2, 0, 16).unwrap(), b"synced bytes");
}

#[test]
fn sync_per_op_costs_more_than_batched() {
    // NFSv2 semantics cost: sync-per-op vs no-sync configuration.
    let run = |sync: bool| {
        let clock = SimClock::new();
        clock.advance(SimDuration::from_secs(1));
        let disk = s4_simdisk::TimedDisk::new(
            MemDisk::with_capacity_bytes(64 << 20),
            s4_simdisk::DiskModelParams::cheetah_9gb_10k(),
            clock.clone(),
        );
        let drive = Arc::new(S4Drive::format(disk, DriveConfig::default(), clock.clone()).unwrap());
        let fs = S4FileServer::mount(
            LoopbackTransport::new(drive, NetworkModel::free()),
            RequestContext::user(UserId(1), ClientId(1)),
            "t",
            S4FsConfig { sync_per_op: sync },
        )
        .unwrap();
        let root = fs.root();
        let start = fs.now();
        for i in 0..50 {
            let f = fs.create(root, &format!("f{i}")).unwrap();
            fs.write(f, 0, b"x").unwrap();
        }
        fs.now() - start
    };
    let synced = run(true);
    let batched = run(false);
    assert!(
        synced > batched,
        "sync-per-op {synced:?} must cost more than batched {batched:?}"
    );
}
