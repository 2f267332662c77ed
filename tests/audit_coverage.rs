//! A drive whose log has no free segment left still answers requests,
//! and drops the audit blocks the log refuses rather than failing the
//! requests they audit. The gap is counted, not hidden:
//! `s4_detect::audit_coverage` reports exactly the dropped records, the
//! records that remain keep dense positions, and the count travels with
//! the log.

use s4_clock::{SimClock, SimDuration};
use s4_core::{ClientId, DriveConfig, Request, RequestContext, Response, S4Drive, UserId};
use s4_detect::audit_coverage;
use s4_simdisk::MemDisk;

/// Records in a full audit block.
const PER_BLOCK: u64 = 60;

#[test]
fn a_refused_audit_block_is_counted_and_positions_stay_dense() {
    let clock = SimClock::new();
    clock.advance(SimDuration::from_secs(1));
    let config = DriveConfig::small_test();
    let d = S4Drive::format(MemDisk::with_capacity_bytes(8 << 20), config, clock.clone()).unwrap();
    let admin = RequestContext::admin(ClientId(9), config.admin_token);
    let user = RequestContext::user(UserId(1), ClientId(1));
    // One record per dispatched request: no monitor files alerts.
    let mut sent = 0u64;
    let mut call = |req: &Request| {
        sent += 1;
        d.dispatch(&user, req)
    };
    let Ok(Response::Created(oid)) = call(&Request::Create) else {
        panic!("create failed");
    };
    // Fill the log: every version is history the window keeps.
    let data = vec![0xAB; 64 * 1024];
    loop {
        let write = Request::Write {
            oid,
            offset: 0,
            data: data.clone(),
        };
        if call(&write).is_err() || call(&Request::Sync).is_err() {
            break;
        }
        clock.advance(SimDuration::from_millis(10));
    }
    // Reads still work, and their records fill blocks the log refuses.
    for _ in 0..3 * PER_BLOCK {
        call(&Request::GetAttr { oid, time: None }).unwrap();
    }

    let len = d.audit_len(&admin).unwrap();
    let dropped = sent - len;
    assert!(
        dropped > 0 && dropped.is_multiple_of(PER_BLOCK),
        "dropped {dropped} of {sent}"
    );
    let coverage = audit_coverage(&d, &admin).unwrap();
    assert_eq!((coverage.appended, coverage.decodable), (sent, len));
    assert_eq!(coverage.missing(), dropped);

    // Dense: the records that remain hold positions 0..len, and any
    // position reads from there on.
    let whole = d.read_log_from(&admin, &mut 0).unwrap();
    assert_eq!(whole.len() as u64, len);
    for from in [0, 1, PER_BLOCK - 1, PER_BLOCK, len - 1, len] {
        let mut at = from;
        let got = d.read_log_from(&admin, &mut at).unwrap();
        assert_eq!(got, whole[from as usize..], "from {from}");
        assert_eq!(at, len);
    }

    // The count survives an anchor and a remount. This log has no room
    // for an anchor, so the replica a resync formats from it anchors it.
    let image = d.resync_image(&admin).unwrap();
    assert_eq!(image.audit.dropped, dropped);
    let bigger = MemDisk::with_capacity_bytes(32 << 20);
    let replica = S4Drive::format_from_image(bigger, config, SimClock::new(), &image).unwrap();
    let replica = S4Drive::mount(replica.crash(), config, SimClock::new()).unwrap();
    assert_eq!(replica.audit_len(&admin).unwrap(), len);
    assert_eq!(replica.audit_total_records(&admin).unwrap(), sent);
    assert_eq!(replica.read_log_from(&admin, &mut 0).unwrap(), whole);
}
