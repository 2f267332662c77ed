//! `nfs_postmark_tcp`: the paper's headline workload over the
//! deployment path. Two `S4FileServer<TcpTransport>` clients (default
//! translator configuration: per-op sync, caches, batched RPCs), one
//! partition each, talk through `TcpServerHandle` to a 2-shard array on
//! `FileDisk`, running PostMark transactions (§5.1.1).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use s4_array::ArrayTransport;
use s4_clock::NetworkModel;
use s4_core::{ClientId, RequestContext, UserId};
use s4_fs::{
    FileServer, Handle, S4FileServer, S4FsConfig, TcpServerHandle, TcpTransport, Transport,
};

use crate::gen::{
    stream_seed, PostmarkFirst, PostmarkGen, PostmarkSecond, PostmarkTxn, POSTMARK_SUBDIRS,
};
use crate::harness::{absorb, common_values, run_clients, Plan, RepOut};
use crate::oracle;
use crate::trace;
use crate::workloads::rig::{Array, Rig};
use crate::wrap::{SpanHandler, SpanTransport};

pub const CLIENTS: usize = 2;
pub const IMAGE_BYTES: u64 = 1 << 30;
pub const FILES_PER_CLIENT: usize = 500;
/// Backstop only: at the seed's ~10 transactions/s the clock always
/// ends the phase; this many transactions would fill ~40 % of an image.
const OP_CAP: u64 = 40_000;

/// Oracle key of a client's file: file numbers are per client.
fn file_key(client: usize, file: u64) -> u64 {
    ((client as u64 + 1) << 40) | file
}

/// The handles a client carries over from preload (an NFS file handle
/// *is* the ObjectID, the same on whichever server mounts the
/// partition), so the timed phase never pays a lookup.
struct Known {
    dirs: Vec<Handle>,
    files: HashMap<u64, Handle>,
}

fn context(client: usize) -> RequestContext {
    RequestContext::user(UserId(1), ClientId(client as u32 + 1))
}

fn partition(client: usize) -> String {
    format!("bench{client}")
}

/// Creates the client's partition, directories and file pool in-process
/// (over TCP every RPC costs a Nagle × delayed-ACK stall at the seed),
/// without the translator's per-op `Sync`: on a two-shard array each one
/// turns its batch into a two-phase commit, and 2 000 of those took
/// anything from 0.8 to 2.2 s on an idle machine. The caller syncs once.
fn preload(array: &Arc<Array>, client: usize, gen: &PostmarkGen) -> Result<Known, String> {
    let transport = ArrayTransport::new(array.clone(), NetworkModel::free());
    let fs = S4FileServer::mount(
        transport,
        context(client),
        &partition(client),
        S4FsConfig {
            sync_per_op: false,
            ..S4FsConfig::default()
        },
    )
    .map_err(|e| format!("preload mount: {e}"))?;
    let mut known = Known {
        dirs: Vec::new(),
        files: HashMap::new(),
    };
    for d in 0..POSTMARK_SUBDIRS {
        let h = fs
            .mkdir(fs.root(), &format!("pm{d}"))
            .map_err(|e| format!("preload mkdir: {e}"))?;
        known.dirs.push(h);
    }
    for &(file, size) in gen.pool() {
        let (_, name) = PostmarkGen::path_of(file);
        let dir = known.dirs[(file % POSTMARK_SUBDIRS) as usize];
        let h = fs
            .create(dir, &name)
            .map_err(|e| format!("preload create: {e}"))?;
        fs.write(
            h,
            0,
            &oracle::bytes(file_key(client, file), 0, 0, size as usize),
        )
        .map_err(|e| format!("preload write: {e}"))?;
        known.files.insert(file, h);
    }
    Ok(known)
}

/// Runs one transaction; `Err` describes the first step that failed or
/// did not verify. Returns the payload bytes it wrote.
fn run_txn<T: Transport>(
    fs: &S4FileServer<T>,
    client: usize,
    known: &mut Known,
    txn: &PostmarkTxn,
) -> Result<u64, String> {
    let mut wrote = 0;
    match txn.first {
        PostmarkFirst::Create { file, size } => {
            let (_, name) = PostmarkGen::path_of(file);
            let dir = known.dirs[(file % POSTMARK_SUBDIRS) as usize];
            let h = fs
                .create(dir, &name)
                .map_err(|e| format!("create {name}: {e}"))?;
            known.files.insert(file, h);
            fs.write(
                h,
                0,
                &oracle::bytes(file_key(client, file), 0, 0, size as usize),
            )
            .map_err(|e| format!("write {name}: {e}"))?;
            wrote += size;
        }
        PostmarkFirst::Delete { file } => {
            let (_, name) = PostmarkGen::path_of(file);
            let dir = known.dirs[(file % POSTMARK_SUBDIRS) as usize];
            fs.remove(dir, &name)
                .map_err(|e| format!("remove {name}: {e}"))?;
            known.files.remove(&file);
        }
    }
    match txn.second {
        PostmarkSecond::Read { file, size } => {
            let h = *known.files.get(&file).ok_or("read of an unknown file")?;
            let data = fs
                .read(h, 0, size)
                .map_err(|e| format!("read f{file}: {e}"))?;
            if data.len() as u64 != size || !oracle::matches(&data, file_key(client, file), 0, 0) {
                return Err(format!(
                    "read f{file}: {} bytes do not match the oracle",
                    data.len()
                ));
            }
        }
        PostmarkSecond::Append { file, at, len } => {
            let h = *known.files.get(&file).ok_or("append to an unknown file")?;
            fs.write(
                h,
                at,
                &oracle::bytes(file_key(client, file), 0, at, len as usize),
            )
            .map_err(|e| format!("append f{file}: {e}"))?;
            wrote += len;
        }
    }
    Ok(wrote)
}

pub fn run_rep(plan: &Plan, rep: usize, traced: bool) -> Result<RepOut, String> {
    let nfiles = plan.size(FILES_PER_CLIENT, 50);
    let mut out = RepOut::default();

    // ---- set-up: array, in-process preload, server, TCP mounts -------
    let t_setup = Instant::now();
    let rig = Rig::build(plan, traced, 2, 1, IMAGE_BYTES)?;
    let mut gens = Vec::new();
    let mut knowns = Vec::new();
    for c in 0..CLIENTS {
        let gen = PostmarkGen::new(stream_seed(plan.seed, rep, c), nfiles);
        knowns.push(preload(&rig.array, c, &gen)?);
        gens.push(gen);
    }
    rig.sync(&context(0))?;
    let handler = Arc::new(SpanHandler::new(rig.array.clone()));
    let server = TcpServerHandle::serve(handler.clone(), "127.0.0.1:0")
        .map_err(|e| format!("tcp serve: {e}"))?;
    let mut mounts = Vec::new();
    for c in 0..CLIENTS {
        let tcp = TcpTransport::connect(server.addr()).map_err(|e| format!("tcp connect: {e}"))?;
        let fs = S4FileServer::mount(
            SpanTransport::new(tcp),
            context(c),
            &partition(c),
            S4FsConfig::default(),
        )
        .map_err(|e| format!("tcp mount: {e}"))?;
        mounts.push(fs);
    }
    out.set("setup_s", t_setup.elapsed().as_secs_f64());

    // ---- closed loop: one PostMark transaction per op ------------------
    let txn_before = rig.txn_counts();
    let mut clients: Vec<(PostmarkGen, Known)> = gens.into_iter().zip(knowns).collect();
    let (totals, window, ended_by) = run_clients(
        plan,
        OP_CAP,
        &mut clients,
        &|| rig.snap(),
        &|c, (gen, known), phase, log| {
            let fs = &mounts[c];
            let mut sent0 = fs.transport().sent();
            while !phase.stopped() {
                let timed = phase.timed();
                let txn = gen.next().expect("endless stream");
                let t0 = Instant::now();
                let r = trace::span("op", 0, None, || run_txn(fs, c, known, &txn));
                let t1 = Instant::now();
                let sent1 = fs.transport().sent();
                if timed {
                    log.rpcs += sent1.0 - sent0.0;
                    log.req_bytes += sent1.1 - sent0.1;
                    if let Ok(wrote) = r {
                        log.user_bytes += wrote;
                    }
                    log.op(t0, t1, r.err());
                    phase.completed();
                }
                sent0 = sent1;
            }
        },
    );
    out.ended_by = ended_by;
    common_values(&mut out, &window, &totals);
    rig.txn_values(&mut out, txn_before, totals.ops);
    out.set(
        "s4fs.rpcs_per_op",
        totals.rpcs as f64 / totals.ops.max(1) as f64,
    );
    out.set(
        "tcp.req_bytes_per_rpc",
        totals.req_bytes as f64 / totals.rpcs.max(1) as f64,
    );
    out.set("tcp.rpcs_per_s", totals.rpcs as f64 / window.seconds);
    absorb(&mut out, totals);

    // ---- stop the wire, then read every live file back in-process ------
    // Paths are resolved afresh, so the directories are checked too.
    drop(mounts);
    server.shutdown();
    for (c, (gen, _)) in clients.iter().enumerate() {
        let transport = ArrayTransport::new(rig.array.clone(), NetworkModel::free());
        let fs = S4FileServer::mount(transport, context(c), &partition(c), S4FsConfig::default())
            .map_err(|e| format!("verify mount: {e}"))?;
        for &(file, size) in gen.pool() {
            let (dir, name) = PostmarkGen::path_of(file);
            let data = fs
                .resolve_path(&format!("{dir}/{name}"))
                .and_then(|h| fs.read(h, 0, size + 1));
            let ok = matches!(&data, Ok(d) if d.len() as u64 == size
                && oracle::matches(d, file_key(c, file), 0, 0));
            out.check(ok, || {
                format!(
                    "read-back of client {c} file {name} ({size} bytes) does not match the oracle"
                )
            });
        }
    }
    drop(rig);
    out.spans = trace::drain();
    Ok(out)
}
