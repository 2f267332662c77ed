//! End-to-end test of the `s4` CLI against a persistent disk image:
//! format, put, time travel, restore, audit — across separate process
//! invocations (each one mounts, operates, and cleanly unmounts).

use std::io::Write as _;
use std::process::{Command, Stdio};

fn s4(args: &[&str], image: &std::path::Path) -> (String, String, bool) {
    let mut full = vec![args[0], image.to_str().unwrap()];
    full.extend(&args[1..]);
    let out = Command::new(env!("CARGO_BIN_EXE_s4"))
        .args(&full)
        .output()
        .expect("spawn s4");
    (
        String::from_utf8_lossy(&out.stdout).to_string(),
        String::from_utf8_lossy(&out.stderr).to_string(),
        out.status.success(),
    )
}

fn s4_stdin(args: &[&str], image: &std::path::Path, input: &[u8]) -> (String, bool) {
    let mut full = vec![args[0], image.to_str().unwrap()];
    full.extend(&args[1..]);
    let mut child = Command::new(env!("CARGO_BIN_EXE_s4"))
        .args(&full)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn s4");
    child.stdin.as_mut().unwrap().write_all(input).unwrap();
    let out = child.wait_with_output().unwrap();
    (
        String::from_utf8_lossy(&out.stdout).to_string(),
        out.status.success(),
    )
}

#[test]
fn cli_versioning_workflow_across_invocations() {
    let dir = std::env::temp_dir().join(format!("s4-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let image = dir.join("disk.s4");

    // format
    let (_out, err, ok) = s4(&["format", "64"], &image);
    assert!(ok, "format failed: {err}");

    // put v1
    let (_out, ok) = s4_stdin(&["put", "notes.txt"], &image, b"original contents");
    assert!(ok);

    // capture the image's simulated time
    let (now_out, _, ok) = s4(&["now"], &image);
    assert!(ok);
    let t1 = now_out.trim().trim_end_matches('s').to_string();

    // overwrite with v2
    let (_out, ok) = s4_stdin(&["put", "notes.txt"], &image, b"tampered!");
    assert!(ok);

    // current cat shows v2
    let (cat_now, _, ok) = s4(&["cat", "notes.txt"], &image);
    assert!(ok);
    assert_eq!(cat_now, "tampered!");

    // time-travel cat shows v1
    let (cat_old, err, ok) = s4(&["cat", "notes.txt", "--at", &t1], &image);
    assert!(ok, "cat --at failed: {err}");
    assert_eq!(cat_old, "original contents");

    // ls shows the file with v2's size
    let (ls_out, _, ok) = s4(&["ls"], &image);
    assert!(ok);
    assert!(ls_out.contains("notes.txt"));
    assert!(ls_out.contains("9"), "size of v2: {ls_out}");

    // restore to v1; current cat now shows v1
    let (_out, err, ok) = s4(&["restore", "notes.txt", &t1], &image);
    assert!(ok, "restore failed: {err}");
    let (cat_restored, _, ok) = s4(&["cat", "notes.txt"], &image);
    assert!(ok);
    assert_eq!(cat_restored, "original contents");

    // rm works, and the file is gone from ls
    let (_out, _, ok) = s4(&["rm", "notes.txt"], &image);
    assert!(ok);
    let (ls_after, _, ok) = s4(&["ls"], &image);
    assert!(ok);
    assert!(!ls_after.contains("notes.txt"));

    // audit names the operations across all sessions
    let (audit_out, audit_err, ok) = s4(&["audit"], &image);
    assert!(ok);
    assert!(audit_out.contains("Write"), "audit: {audit_out}");
    assert!(audit_out.contains("Delete"));
    assert!(audit_err.contains("records"));
    // Each line opens with the record's position in the whole log.
    let first_field = |l: &str| -> u64 {
        let field = l.split_whitespace().next().unwrap_or_default();
        field.parse().unwrap_or_else(|_| panic!("no position: {l}"))
    };
    let positions: Vec<u64> = audit_out.lines().map(first_field).collect();
    assert_eq!(positions[0], 0, "audit: {audit_out}");
    assert!(positions.windows(2).all(|w| w[0] < w[1]), "{positions:?}");

    // stats serves the metrics exposition and the tail of the audit
    // log persisted by the earlier invocations.
    let (stats_out, stats_err, ok) = s4(&["stats"], &image);
    assert!(ok, "stats failed: {stats_err}");
    for needle in [
        "s4_rpc_latency_us{quantile=\"0.99\"}",
        "s4_history_pool_occupancy",
        "s4_detection_window_headroom_days",
    ] {
        assert!(stats_out.contains(needle), "stats missing {needle}");
    }
    assert!(
        stats_err.contains("flight recorder"),
        "stats tail: {stats_err}"
    );
    assert!(
        stats_err.contains("ok=true"),
        "traces span sessions: {stats_err}"
    );
    // The tail is the log's last ten positions, read from there alone.
    let len: u64 = stats_err
        .lines()
        .find_map(|l| l.strip_prefix("flight recorder: "))
        .and_then(|l| l.strip_suffix(" audit records"))
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no log length: {stats_err}"));
    assert!(
        len > *positions.last().unwrap(),
        "{len} after {positions:?}"
    );
    let tail: Vec<u64> = stats_err
        .lines()
        .skip_while(|l| !l.starts_with("flight recorder"))
        .skip(1)
        .map(first_field)
        .collect();
    assert_eq!(tail, (len - 10..len).collect::<Vec<_>>(), "{stats_err}");

    // unknown command fails politely
    let (_, err, ok) = s4(&["frobnicate"], &image);
    assert!(!ok);
    assert!(err.contains("unknown command"));

    std::fs::remove_dir_all(&dir).ok();
}

/// A flag no subcommand reads is refused by name, wherever it stands:
/// `--as` is not `--at` (it would list the present, not the past), and
/// `stats` has one output format, so `--json` must not swallow the image.
#[test]
fn cli_refuses_a_flag_it_does_not_know() {
    let dir = std::env::temp_dir().join(format!("s4-cli-flags-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let image = dir.join("disk.s4");
    let (_out, err, ok) = s4(&["format", "64"], &image);
    assert!(ok, "format failed: {err}");

    let (out, err, ok) = s4(&["ls", "--as", "0.5"], &image);
    assert!(!ok, "ls --as succeeded: {out}");
    assert!(err.contains("--as"), "error does not name the flag: {err}");

    let out = Command::new(env!("CARGO_BIN_EXE_s4"))
        .args(["stats", "--json"])
        .arg(&image)
        .output()
        .expect("spawn s4");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "stats --json succeeded");
    assert!(
        err.contains("--json"),
        "error does not name the flag: {err}"
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// `s4 reshard`: double a two-image array onto two fresh images and
/// verify the split routing and every object digest from a remount.
#[test]
fn cli_reshard_doubles_an_array() {
    use s4_array::{ArrayConfig, S4Array};
    use s4_clock::{SimClock, SimDuration};
    use s4_core::{ClientId, DriveConfig, Request, RequestContext, Response, UserId};
    use s4_simdisk::FileDisk;

    let dir = std::env::temp_dir().join(format!("s4-cli-reshard-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let img = |n: &str| dir.join(n);
    let admin = RequestContext::admin(ClientId(0), DriveConfig::default().admin_token);

    // Build a 2x1 array image set with a synced population.
    let clock = SimClock::new();
    clock.advance(SimDuration::from_secs(1));
    let devices = ["a0.s4", "a1.s4"]
        .iter()
        .map(|n| FileDisk::create(img(n), 64 * 2048).unwrap())
        .collect();
    let cfg = ArrayConfig {
        mirrors: 1,
        ..ArrayConfig::default()
    };
    let a = S4Array::format(devices, DriveConfig::default(), cfg, clock).unwrap();
    let ctx = RequestContext::user(UserId(5), ClientId(2));
    let mut digests = Vec::new();
    for i in 0..12u64 {
        let oid = match a.dispatch(&ctx, &Request::Create).unwrap() {
            Response::Created(oid) => oid,
            other => panic!("unexpected response {other:?}"),
        };
        a.dispatch(
            &ctx,
            &Request::Write {
                oid,
                offset: 0,
                data: vec![i as u8; 40],
            },
        )
        .unwrap();
        digests.push((oid, 0u64));
    }
    a.dispatch(&ctx, &Request::Sync).unwrap();
    for (oid, d) in digests.iter_mut() {
        let s = a.shard_index_of(*oid);
        *d = a.shard_drive(s).object_digest(&admin, *oid).unwrap();
    }
    a.unmount().unwrap();

    // The CLI splits both residue classes onto fresh images.
    let out = Command::new(env!("CARGO_BIN_EXE_s4"))
        .arg("reshard")
        .args([img("a0.s4"), img("a1.s4")])
        .arg("--targets")
        .args([img("b0.s4"), img("b1.s4")])
        .output()
        .expect("spawn s4");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "reshard failed: {stderr}");
    assert!(stdout.contains("slot 0 -> 2"), "{stdout}");
    assert!(stdout.contains("slot 1 -> 3"), "{stdout}");
    assert!(stdout.contains("base=4"), "{stdout}");

    // Remount all four images: doubled epoch, objects in their doubled
    // classes, digests untouched by the migration.
    let devices = ["a0.s4", "a1.s4", "b0.s4", "b1.s4"]
        .iter()
        .map(|n| FileDisk::open(img(n)).unwrap())
        .collect();
    let (a2, _) = S4Array::mount(devices, DriveConfig::default(), cfg, SimClock::new()).unwrap();
    assert_eq!(a2.epoch().base, 4);
    for (oid, d) in &digests {
        let s = a2.shard_index_of(*oid);
        assert_eq!(a2.shard_slot(s), (oid.0 % 4) as usize);
        assert_eq!(a2.shard_drive(s).object_digest(&admin, *oid).unwrap(), *d);
    }
    a2.unmount().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// `s4 trace`: a traced cross-shard batch on a two-image array shows up
/// in the listing, renders as one causal tree by id, and ranks under
/// `--slowest` — all from a cold CLI mount of the persisted images.
#[test]
fn cli_trace_assembles_across_invocations() {
    use s4_array::{ArrayConfig, S4Array};
    use s4_clock::{SimClock, SimDuration};
    use s4_core::{ClientId, DriveConfig, Request, RequestContext, Response, TraceCtx, UserId};
    use s4_simdisk::FileDisk;

    let dir = std::env::temp_dir().join(format!("s4-cli-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let img = |n: &str| dir.join(n);

    // Build a 2x1 array with one object per shard and run a traced
    // cross-shard atomic batch under a known id.
    let clock = SimClock::new();
    clock.advance(SimDuration::from_secs(1));
    let devices = ["t0.s4", "t1.s4"]
        .iter()
        .map(|n| FileDisk::create(img(n), 64 * 2048).unwrap())
        .collect();
    let cfg = ArrayConfig {
        mirrors: 1,
        ..ArrayConfig::default()
    };
    let a = S4Array::format(devices, DriveConfig::default(), cfg, clock).unwrap();
    let ctx = RequestContext::user(UserId(5), ClientId(2));
    let mut oids = [None, None];
    while oids.iter().any(Option::is_none) {
        let oid = match a.dispatch(&ctx, &Request::Create).unwrap() {
            Response::Created(oid) => oid,
            other => panic!("unexpected response {other:?}"),
        };
        oids[a.shard_index_of(oid)].get_or_insert(oid);
    }
    let stamped = ctx.with_trace(TraceCtx {
        trace_id: 0xBEEF,
        origin: 0,
        phase: 0,
    });
    let reqs = oids
        .iter()
        .map(|o| Request::Write {
            oid: o.unwrap(),
            offset: 0,
            data: b"cli-traced".to_vec(),
        })
        .collect();
    a.dispatch(&stamped, &Request::Batch(reqs)).unwrap();
    a.dispatch(&ctx, &Request::Sync).unwrap();
    for s in 0..2 {
        a.shard_drive(s).force_anchor().unwrap();
    }
    a.unmount().unwrap();

    let run = |extra: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_s4"))
            .arg("trace")
            .args([img("t0.s4"), img("t1.s4")])
            .args(extra)
            .output()
            .expect("spawn s4");
        assert!(
            out.status.success(),
            "trace {extra:?} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).to_string()
    };

    // Listing: the batch's id appears with both shards joined.
    let listing = run(&[]);
    assert!(listing.contains("0x000000000000beef"), "{listing}");
    assert!(listing.contains("2 shard(s)"), "{listing}");

    // By id: one rendered tree with both protocol phases.
    let tree = run(&["0xbeef"]);
    assert!(tree.starts_with("trace 0x000000000000beef"), "{tree}");
    assert!(tree.contains("phase prepare"), "{tree}");
    assert!(tree.contains("phase decide"), "{tree}");
    assert!(tree.contains("shard 1"), "{tree}");

    // --slowest renders at least the batch's tree.
    let slowest = run(&["--slowest", "1"]);
    assert!(slowest.starts_with("trace 0x"), "{slowest}");

    // Flags may stand before or after the images, on every subcommand.
    let txn = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_s4"))
            .arg("txn")
            .args(args)
            .output()
            .expect("spawn s4");
        assert!(
            out.status.success(),
            "txn {args:?} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).to_string()
    };
    let (t0, t1) = (img("t0.s4"), img("t1.s4"));
    let (t0, t1) = (t0.to_str().unwrap(), t1.to_str().unwrap());
    let flags_first = txn(&["--mirrors", "1", t0, t1]);
    assert!(flags_first.starts_with("committed="), "{flags_first}");
    assert_eq!(flags_first, txn(&[t0, t1, "--mirrors", "1"]));

    std::fs::remove_dir_all(&dir).ok();
}

/// `s4 stats` on a mirrored image set: `--mirrors` groups the images into
/// shards as `s4 txn` and `s4 trace` do, so one shard of two mirrors
/// mounts against its persisted epoch; the flight recorder prints each
/// shard's last ten records at their positions, read from there.
#[test]
fn cli_stats_mounts_a_mirrored_array() {
    use s4_array::{ArrayConfig, S4Array};
    use s4_clock::{SimClock, SimDuration};
    use s4_core::{ClientId, DriveConfig, Request, RequestContext, UserId};
    use s4_simdisk::FileDisk;

    let dir = std::env::temp_dir().join(format!("s4-cli-mirrors-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let img = |n: &str| dir.join(n);

    let clock = SimClock::new();
    clock.advance(SimDuration::from_secs(1));
    let devices = ["m0.s4", "m1.s4"]
        .iter()
        .map(|n| FileDisk::create(img(n), 64 * 2048).unwrap())
        .collect();
    let cfg = ArrayConfig {
        mirrors: 2,
        ..ArrayConfig::default()
    };
    let a = S4Array::format(devices, DriveConfig::default(), cfg, clock).unwrap();
    let ctx = RequestContext::user(UserId(5), ClientId(2));
    for _ in 0..11 {
        a.dispatch(&ctx, &Request::Create).unwrap();
    }
    a.dispatch(&ctx, &Request::Sync).unwrap();
    a.unmount().unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_s4"))
        .arg("stats")
        .args([img("m0.s4"), img("m1.s4")])
        .args(["--mirrors", "2"])
        .output()
        .expect("spawn s4");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "stats failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("s4_array_mirrors 2"), "{stdout}");
    // The shard's last ten of its twelve records, each at its position
    // in the shard's log.
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("flight recorder: shard=0 12 audit records"),
        "{stderr}"
    );
    let tail: Vec<(&str, u64, &str)> = stderr
        .lines()
        .filter_map(|l| {
            let mut words = l.split_whitespace();
            let shard = words.next()?.strip_prefix("shard=")?;
            let position = words.next()?.parse().ok()?;
            Some((shard, position, words.nth(3)?))
        })
        .collect();
    let want: Vec<(&str, u64, &str)> = (2..=11)
        .map(|p| ("0", p, if p == 11 { "Sync" } else { "Create" }))
        .collect();
    assert_eq!(tail, want, "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}
