//! Version and administration tools (§3.6).
//!
//! "Tools for traversing the history must assist by bridging the gap
//! between standard file interfaces and the raw versions that are stored
//! by the device ... utilities can present interfaces similar to that of
//! Elephant, with time-enhanced versions of standard utilities such as
//! `ls` and `cp`."
//!
//! * [`ls_at`] / [`read_file_at`] — time-enhanced `ls` and `cat`.
//! * [`write_file`] — whole-file replace (the CLI's `put`).
//! * [`restore_file`] — `cp` from the history pool forward: "the old
//!   version of the object can be completely restored by requesting that
//!   the drive copy forward the old version, thus making a new version"
//!   (§3.3).
//!
//! Intrusion diagnosis over the audit log (the damage report) is
//! drive-level work and lives in `s4-detect` ([`s4_detect::damage_report`]).

use s4_clock::SimTime;

use crate::s4fs::S4FileServer;
use crate::server::{FileKind, FileServer, FsError, FsResult, Handle};
use crate::transport::Transport;

/// Splits `dir/name` at the last `/`; a bare name is in the root (`""`).
pub fn split_path(path: &str) -> (&str, &str) {
    path.rsplit_once('/').unwrap_or(("", path))
}

/// Time-enhanced `ls`: lists `path` as it was at `time`.
///
/// Note: this is the *file-server-side* view (it resolves `path`
/// through a mounted [`S4FileServer`]). For drive-side forensics
/// without a file-server mount — historical namespace walks and tree
/// diffs by object id — use [`s4_detect::tree_diff`] instead.
pub fn ls_at<T: Transport>(
    fs: &S4FileServer<T>,
    path: &str,
    time: SimTime,
) -> FsResult<Vec<(String, FileKind, u64)>> {
    let dir = fs.resolve_path_at(path, time)?;
    let entries = fs.readdir_at(dir, time)?;
    let mut out = Vec::with_capacity(entries.len());
    for (name, h, kind) in entries {
        let size = fs.getattr_at(h, time).map(|a| a.size).unwrap_or(0);
        out.push((name, kind, size));
    }
    Ok(out)
}

/// Time-enhanced `cat`: reads the whole contents of `path` as of `time`.
pub fn read_file_at<T: Transport>(
    fs: &S4FileServer<T>,
    path: &str,
    time: SimTime,
) -> FsResult<Vec<u8>> {
    let h = fs.resolve_path_at(path, time)?;
    let attr = fs.getattr_at(h, time)?;
    fs.read_at(h, 0, attr.size, time)
}

/// Makes `data` the whole contents of `path`, creating the file if it is
/// not there. Returns its handle.
pub fn write_file<T: Transport>(fs: &S4FileServer<T>, path: &str, data: &[u8]) -> FsResult<Handle> {
    let (dir_path, name) = split_path(path);
    let dir = fs.resolve_path(dir_path)?;
    let h = match fs.lookup(dir, name) {
        Ok(h) => h,
        Err(FsError::NotFound) => fs.create(dir, name)?,
        Err(e) => return Err(e),
    };
    fs.truncate(h, 0)?;
    if !data.is_empty() {
        fs.write(h, 0, data)?;
    }
    Ok(h)
}

/// Restores `path` to its contents as of `time` by copying the old
/// version forward (creating a new version — history is never rewritten).
/// If the file no longer exists at `path`, it is recreated there. Returns
/// the handle of the restored file.
pub fn restore_file<T: Transport>(
    fs: &S4FileServer<T>,
    path: &str,
    time: SimTime,
) -> FsResult<Handle> {
    write_file(fs, path, &read_file_at(fs, path, time)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::s4fs::S4FsConfig;
    use crate::transport::LoopbackTransport;
    use s4_clock::{NetworkModel, SimClock, SimDuration};
    use s4_core::{ClientId, DriveConfig, RequestContext, S4Drive, UserId};
    use s4_detect::damage_report;
    use s4_simdisk::{BlockDev, MemDisk};
    use std::sync::Arc;

    fn setup() -> (
        S4FileServer<LoopbackTransport<MemDisk>>,
        Arc<S4Drive<MemDisk>>,
        RequestContext,
    ) {
        let clock = SimClock::new();
        clock.advance(SimDuration::from_secs(1));
        let drive = Arc::new(
            S4Drive::format(MemDisk::new(400_000), DriveConfig::small_test(), clock).unwrap(),
        );
        let t = LoopbackTransport::new(drive.clone(), NetworkModel::free());
        let ctx = RequestContext::user(UserId(1), ClientId(1));
        let fs = S4FileServer::mount(t, ctx, "export", S4FsConfig::default()).unwrap();
        let admin = RequestContext::admin(ClientId(9), 42);
        (fs, drive, admin)
    }

    fn tick<D: BlockDev>(d: &S4Drive<D>) {
        d.clock().advance(SimDuration::from_millis(50));
    }

    #[test]
    fn ls_and_cat_travel_in_time() {
        let (fs, drive, _) = setup();
        let root = fs.root();
        let f = fs.create(root, "notes.txt").unwrap();
        fs.write(f, 0, b"first draft").unwrap();
        let t1 = fs.now();
        tick(&drive);
        fs.write(f, 0, b"final copy!").unwrap();
        fs.create(root, "later.txt").unwrap();

        let old_listing = ls_at(&fs, "", t1).unwrap();
        assert_eq!(old_listing.len(), 1);
        assert_eq!(old_listing[0].0, "notes.txt");
        assert_eq!(read_file_at(&fs, "notes.txt", t1).unwrap(), b"first draft");
        let now_listing = ls_at(&fs, "", fs.now()).unwrap();
        assert_eq!(now_listing.len(), 2);
    }

    #[test]
    fn restore_recovers_deleted_file() {
        let (fs, drive, _) = setup();
        let root = fs.root();
        let f = fs.create(root, "precious.dat").unwrap();
        fs.write(f, 0, b"do not lose me").unwrap();
        let before = fs.now();
        tick(&drive);
        fs.remove(root, "precious.dat").unwrap();
        assert!(fs.lookup(root, "precious.dat").is_err());

        let restored = restore_file(&fs, "precious.dat", before).unwrap();
        let attr = fs.getattr(restored).unwrap();
        assert_eq!(fs.read(restored, 0, attr.size).unwrap(), b"do not lose me");
    }

    /// `s4_detect::damage_report` over activity made through the
    /// translator (only this crate can stage that).
    #[test]
    fn damage_report_finds_intruder_activity() {
        let (fs, drive, admin) = setup();
        let root = fs.root();
        let secret = fs.create(root, "secret.key").unwrap();
        fs.write(secret, 0, b"hunter2").unwrap();

        // The "intruder" (client 66) reads the secret and plants a file.
        let evil_ctx = RequestContext::user(UserId(66), ClientId(66));
        let t = LoopbackTransport::new(drive.clone(), NetworkModel::free());
        // Give the intruder its own tree so ACLs allow it.
        let evil_fs = S4FileServer::mount(t, evil_ctx, "evil", S4FsConfig::default()).unwrap();
        let eroot = evil_fs.root();
        let from = drive.now();
        let backdoor = evil_fs.create(eroot, "backdoor.sh").unwrap();
        evil_fs
            .write(backdoor, 0, b"#!/bin/sh\nnc -l 31337")
            .unwrap();
        let _peek = evil_fs.read(backdoor, 0, 10).unwrap();
        let to = drive.now();

        let report = damage_report(
            &drive,
            &admin,
            ClientId(66),
            from,
            to,
            SimDuration::from_secs(60),
        )
        .unwrap();
        assert!(report.modified.contains(&backdoor));
        assert!(report.read.contains(&backdoor));
        assert!(report.request_count >= 3);
        // The honest client's earlier write is not in the interval.
        assert!(!report.modified.contains(&secret));
    }
}
