//! End-to-end cross-shard causal trace assembly (DESIGN §6j): a traced
//! atomic batch on a 4×2 mirrored array must assemble into exactly one
//! causal tree spanning the coordinator, every participant shard, and
//! both mirror members per shard — and the span set must survive a
//! crash and remount (each span is vouched for by the member audit log
//! that persisted it, so the assembled tree is rebuilt purely from the
//! crash-surviving per-drive logs).

use std::collections::BTreeSet;

use s4_array::{ArrayConfig, S4Array};
use s4_clock::{SimClock, SimDuration};
use s4_core::{
    ClientId, DriveConfig, ObjectId, OpKind, Request, RequestContext, Response, TraceCtx, UserId,
    PHASE_DECIDE, PHASE_NOTE, PHASE_PREPARE,
};
use s4_detect::TraceTree;
use s4_simdisk::MemDisk;

const SHARDS: usize = 4;
const MIRRORS: usize = 2;
/// The client pre-stamps its own trace id (as a transport would), so
/// the test can find the batch's tree among the seeding traffic's.
const TRACE_ID: u64 = 0x42;

fn cfg() -> ArrayConfig {
    ArrayConfig {
        mirrors: MIRRORS,
        ..ArrayConfig::default()
    }
}

fn user() -> RequestContext {
    RequestContext::user(UserId(1), ClientId(1))
}

fn admin() -> RequestContext {
    // small_test()'s admin token.
    RequestContext::admin(ClientId(0), 42)
}

/// Formats a 4×2 array and seeds one synced object per shard.
fn build() -> (S4Array<MemDisk>, Vec<ObjectId>) {
    let clock = SimClock::new();
    clock.advance(SimDuration::from_secs(1));
    let devices = (0..SHARDS * MIRRORS)
        .map(|_| MemDisk::with_capacity_bytes(64 << 20))
        .collect();
    let a = S4Array::format(devices, DriveConfig::small_test(), cfg(), clock).unwrap();
    let ctx = user();
    let mut oids: Vec<Option<ObjectId>> = vec![None; SHARDS];
    while oids.iter().any(Option::is_none) {
        let oid = match a.dispatch(&ctx, &Request::Create).unwrap() {
            Response::Created(oid) => oid,
            other => panic!("unexpected response {other:?}"),
        };
        oids[a.shard_index_of(oid)].get_or_insert(oid);
    }
    a.dispatch(&ctx, &Request::Sync).unwrap();
    (a, oids.into_iter().map(Option::unwrap).collect())
}

/// Issues the traced cross-shard atomic batch: one write per shard
/// under a client-stamped trace context.
fn traced_batch(a: &S4Array<MemDisk>, oids: &[ObjectId]) {
    let ctx = user().with_trace(TraceCtx {
        trace_id: TRACE_ID,
        origin: 0,
        phase: 0,
    });
    let reqs = oids
        .iter()
        .map(|&oid| Request::Write {
            oid,
            offset: 0,
            data: b"txn-payload".to_vec(),
        })
        .collect();
    match a.dispatch(&ctx, &Request::Batch(reqs)).unwrap() {
        Response::Batch(rs) => assert_eq!(rs.len(), SHARDS, "every slot answered"),
        other => panic!("unexpected response {other:?}"),
    }
}

/// The batch's tree — asserting it is the *only* one with its id.
fn the_tree(trees: &[TraceTree]) -> &TraceTree {
    let hits: Vec<&TraceTree> = trees.iter().filter(|t| t.trace_id == TRACE_ID).collect();
    assert_eq!(
        hits.len(),
        1,
        "the batch must assemble into exactly one causal tree"
    );
    hits[0]
}

/// Canonical span identity for cross-remount comparison: which member
/// stream vouches for it plus the record's own identity fields.
fn span_set(tree: &TraceTree) -> BTreeSet<(usize, usize, u64, u8, OpKind, bool, ObjectId)> {
    tree.spans
        .iter()
        .map(|s| {
            let r = &s.record;
            (
                s.shard,
                s.member,
                s.seq,
                r.trace.phase,
                r.op,
                r.ok,
                r.object,
            )
        })
        .collect()
}

/// The tree must span the whole protocol: every participant shard,
/// both mirror members per shard, with prepare + decide spans on each
/// member and the commit-point note exactly on the coordinator
/// (shard 0) members.
fn assert_full_span_set(tree: &TraceTree) {
    assert_eq!(
        tree.shards(),
        (0..SHARDS).collect::<BTreeSet<_>>(),
        "tree must span every participant shard"
    );
    assert_eq!(
        tree.members().len(),
        SHARDS * MIRRORS,
        "tree must span both mirror members of every shard"
    );
    for s in 0..SHARDS {
        for m in 0..MIRRORS {
            let phases: Vec<u8> = tree
                .spans
                .iter()
                .filter(|sp| sp.shard == s && sp.member == m)
                .map(|sp| sp.record.trace.phase)
                .collect();
            assert!(
                phases.contains(&PHASE_PREPARE),
                "shard {s} member {m} missing its prepare span"
            );
            assert!(
                phases.contains(&PHASE_DECIDE),
                "shard {s} member {m} missing its decide span"
            );
            assert_eq!(
                phases.contains(&PHASE_NOTE),
                s == 0,
                "shard {s} member {m}: commit-point note on the wrong shard"
            );
        }
    }
}

#[test]
fn cross_shard_batch_assembles_one_tree_and_survives_remount() {
    let (a, oids) = build();
    traced_batch(&a, &oids);

    // Live assembly: one tree, full causal span set.
    let trees = a.assemble_all_traces(&admin()).unwrap();
    let live_spans = {
        let tree = the_tree(&trees);
        assert_full_span_set(tree);
        span_set(tree)
    };

    // Anchor every member (the durability point for the buffered audit
    // tails), then crash the whole array — volatile state is gone.
    for s in 0..SHARDS {
        for m in 0..MIRRORS {
            a.member_drive(s, m).force_anchor().unwrap();
        }
    }
    let devices = a.crash().unwrap();
    let (a2, reports) =
        S4Array::mount(devices, DriveConfig::small_test(), cfg(), SimClock::new()).unwrap();
    assert_eq!(reports.len(), SHARDS * MIRRORS);

    let trees = a2.assemble_all_traces(&admin()).unwrap();
    let remount_spans = {
        let tree = the_tree(&trees);
        assert_full_span_set(tree);
        span_set(tree)
    };
    assert_eq!(
        live_spans, remount_spans,
        "the span set must survive crash + remount unchanged"
    );

    // And a second remount reproduces it byte-for-byte (assembly is a
    // pure function of the persisted member logs).
    let devices = a2.crash().unwrap();
    let (a3, _) =
        S4Array::mount(devices, DriveConfig::small_test(), cfg(), SimClock::new()).unwrap();
    let trees = a3.assemble_all_traces(&admin()).unwrap();
    let tree = the_tree(&trees);
    assert_full_span_set(tree);
    assert_eq!(span_set(tree), remount_spans, "remount changed the tree");
}

#[test]
fn untraced_array_assembles_nothing_and_slowest_ranks_by_rpc() {
    // With tracing disabled at the array, the same batch leaves no
    // assemblable trace ids, so assembly is empty.
    let clock = SimClock::new();
    clock.advance(SimDuration::from_secs(1));
    let devices = (0..SHARDS * MIRRORS)
        .map(|_| MemDisk::with_capacity_bytes(64 << 20))
        .collect();
    let a = S4Array::format(
        devices,
        DriveConfig::small_test(),
        ArrayConfig {
            mirrors: MIRRORS,
            trace: false,
        },
        clock,
    )
    .unwrap();
    let ctx = user();
    let oid = match a.dispatch(&ctx, &Request::Create).unwrap() {
        Response::Created(oid) => oid,
        other => panic!("unexpected response {other:?}"),
    };
    a.dispatch(
        &ctx,
        &Request::Write {
            oid,
            offset: 0,
            data: vec![1; 64],
        },
    )
    .unwrap();
    assert!(
        a.assemble_all_traces(&admin()).unwrap().is_empty(),
        "untraced array must assemble no trees"
    );

    // A pre-stamped context still traces (the gate only stops the array
    // from *minting* ids), and `slowest_traces` surfaces it.
    let stamped = ctx.with_trace(TraceCtx {
        trace_id: 0x510,
        origin: 0,
        phase: 0,
    });
    a.dispatch(
        &ctx.with_trace(TraceCtx {
            trace_id: 0x511,
            origin: 0,
            phase: 0,
        }),
        &Request::Read {
            oid,
            offset: 0,
            len: 8,
            time: None,
        },
    )
    .unwrap();
    a.dispatch(
        &stamped,
        &Request::Write {
            oid,
            offset: 0,
            data: vec![2; 32],
        },
    )
    .unwrap();
    let trees = a.assemble_all_traces(&admin()).unwrap();
    assert_eq!(trees.len(), 2, "pre-stamped requests assemble");
    let slowest = s4_detect::slowest_traces(&trees, 1);
    assert_eq!(slowest.len(), 1);
    let expected_max = trees.iter().map(TraceTree::max_rpc_us).max().unwrap();
    assert_eq!(slowest[0].max_rpc_us(), expected_max);
    a.unmount().unwrap();
}
