//! The array itself: configuration, the routing snapshot, format / mount
//! / teardown, and the accessors the admin plane reads members through.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::AtomicUsize;
use std::sync::Arc;

use s4_clock::sync::Mutex;
use s4_clock::SimClock;
use s4_core::{
    ClientId, DriveConfig, ObjectId, RecoveryReport, RequestContext, S4Drive, S4Error, TraceCtx,
    TraceIdGen, PARTITION_OBJECT,
};
use s4_obs::Registry;
use s4_simdisk::BlockDev;
use s4_txn::parse_note;

use crate::epoch::{EpochInfo, EPOCH_NOTE_PREFIX};
use crate::router::dense_of;
use crate::shard::{MemberState, Shard, ShardHandle};
use crate::txn::{unretired_gauge, UnretiredNote};

/// Bound of each shard's request queue. A full queue blocks the
/// submitting client thread (backpressure) instead of growing without
/// limit — the array runs one worker per shard, not one thread per
/// connection.
pub const QUEUE_DEPTH: usize = 64;

/// Array-level tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct ArrayConfig {
    /// Member drives per shard (1 = no redundancy). With `m` mirrors,
    /// `devices.len()` must be a multiple of `m`; shard `s` owns
    /// devices `s*m .. (s+1)*m`, all formatted in the same ObjectID
    /// residue class. Mutations apply to every in-sync member; reads
    /// are served by the first live member, failing over on disk
    /// faults.
    pub mirrors: usize,
    /// Assign a causal trace id to every request entering the array
    /// whose context carries none, so member drives' audit records are
    /// joinable across shards (DESIGN §6j). Off, requests the caller
    /// left untraced stay untraced (trace id 0) — the `fig_trace`
    /// benchmark's baseline.
    pub trace: bool,
}

impl Default for ArrayConfig {
    fn default() -> Self {
        ArrayConfig {
            mirrors: 1,
            trace: true,
        }
    }
}

impl ArrayConfig {
    /// Validates the knob that workers would otherwise trip over at
    /// runtime: a zero mirror count (shards with no members).
    pub(crate) fn validate(&self) -> s4_core::Result<()> {
        if self.mirrors == 0 {
            return Err(S4Error::BadRequest("array: mirrors must be at least 1"));
        }
        Ok(())
    }
}

/// A sharded array of [`S4Drive`]s presenting the single-drive RPC
/// surface (it implements [`s4_fs::RpcHandler`], so the TCP server and the
/// file-system layer run over it unchanged).
///
/// Object placement is `oid % n` with reserved objects pinned (see
/// [`shard_of`](crate::shard_of)); each member drive allocates ObjectIDs only in
/// its own residue class so drive-assigned IDs route home. With
/// [`ArrayConfig::mirrors`] > 1 every residue class is served by a
/// mirror group: mutations apply to all in-sync members, reads come
/// from the first live member with failover, and a member that fails
/// fatally (or exhausts its transient-fault retries) is declared dead
/// — the shard keeps serving from the survivor in *degraded mode*,
/// surfaced through a `s4_array_degraded` gauge and an
/// `array-degraded` alert in each survivor's tamper-evident audit log.
/// Every member keeps its own audit log, alerts included — the
/// security perimeter stays per-drive, exactly
/// as §3.2 argues: a compromised client (or even a compromised sibling
/// drive) cannot forge or truncate another drive's history.
pub struct S4Array<D: BlockDev> {
    pub(crate) routing: Mutex<Arc<Routing<D>>>,
    pub(crate) rr: AtomicUsize,
    pub(crate) clock: SimClock,
    pub(crate) cfg: ArrayConfig,
    pub(crate) reshard_reg: Registry,
    /// Mints transaction ids: the trace-id generator's scheme, in an
    /// instance of its own.
    pub(crate) txn_ids: TraceIdGen,
    pub(crate) txn_reg: Registry,
    /// Decision notes of committed transactions that shard 0 still
    /// holds: the next note install retires those whose participants
    /// have made their resolutions durable (DESIGN §6i).
    pub(crate) txn_notes: Mutex<Vec<UnretiredNote>>,
    pub(crate) trace_ids: TraceIdGen,
}

/// One routing epoch's view of the array: the epoch itself plus the
/// live shards in dense order (sources first, then in-flight split
/// targets in slot order). Dispatchers snapshot the current `Arc`,
/// plan against it, and recheck `epoch.seq` after taking their gates —
/// a flip swaps in a new `Routing` atomically.
pub(crate) struct Routing<D: BlockDev> {
    pub(crate) epoch: EpochInfo,
    pub(crate) shards: Vec<Arc<ShardHandle<D>>>,
}

/// Splits `items` (devices or drives, in device order) into mirror
/// groups of `m`: group `s` is items `s*m .. (s+1)*m`.
fn group<T>(items: Vec<T>, m: usize) -> Vec<Vec<T>> {
    let mut groups: Vec<Vec<T>> = Vec::with_capacity(items.len() / m);
    for (i, item) in items.into_iter().enumerate() {
        if i % m == 0 {
            groups.push(Vec::with_capacity(m));
        }
        groups[i / m].push(item);
    }
    groups
}

/// `devices / mirrors`, validating the shape.
fn shard_count_of(devices: usize, mirrors: usize) -> s4_core::Result<usize> {
    if devices == 0 {
        return Err(S4Error::BadRequest("array needs at least one drive"));
    }
    if !devices.is_multiple_of(mirrors) {
        return Err(S4Error::BadRequest(
            "array: device count not a multiple of the mirror count",
        ));
    }
    Ok(devices / mirrors)
}

/// `e`, refused if its generation has more source slots than the
/// routing epoch's 64-bit in-flight-split mask can track.
fn within_bitmap(e: EpochInfo) -> s4_core::Result<EpochInfo> {
    if e.base > 64 {
        return Err(S4Error::BadRequest(
            "array: more than 64 shards (epoch bitmap limit)",
        ));
    }
    Ok(e)
}

/// Formats `devs` as one mirror group. Only the first device is formatted
/// from nothing (and handed to `seed` for whatever the group must hold
/// from birth); its siblings are replayed from the first member's image,
/// as a resync would build them. Formatting moves the shared clock, so
/// siblings formatted one after another would disagree on when their
/// partition tables were created — a replica starts as a copy.
pub(crate) fn format_group<D: BlockDev>(
    devs: Vec<D>,
    config: DriveConfig,
    clock: &SimClock,
    seed: impl FnOnce(&S4Drive<D>) -> s4_core::Result<()>,
) -> s4_core::Result<Vec<S4Drive<D>>> {
    let admin = RequestContext::admin(ClientId(0), config.admin_token);
    let mut devs = devs.into_iter();
    let Some(dev) = devs.next() else {
        return Ok(Vec::new());
    };
    let first = S4Drive::format(dev, config, clock.clone())?;
    seed(&first)?;
    let image = first.resync_image(&admin)?;
    let mut drives = vec![first];
    for dev in devs {
        let sibling = S4Drive::format_from_image(dev, config, clock.clone(), &image)?;
        drives.push(sibling);
    }
    Ok(drives)
}

impl<D: BlockDev + 'static> S4Array<D> {
    /// Formats `devices` as a fresh array sharing `clock`. With
    /// `array.mirrors = m`, `devices.len()` must be a positive multiple
    /// of `m`: shard `s` of `n = devices.len()/m` owns devices
    /// `s*m..(s+1)*m`, every member formatted by `format_group` and
    /// allocating in ObjectID class `s (mod n)`. The initial routing epoch is
    /// persisted in shard 0's partition table before the array serves
    /// anything.
    pub fn format(
        devices: Vec<D>,
        config: DriveConfig,
        array: ArrayConfig,
        clock: SimClock,
    ) -> s4_core::Result<S4Array<D>> {
        array.validate()?;
        let n = shard_count_of(devices.len(), array.mirrors)?;
        let epoch = within_bitmap(EpochInfo::initial(n))?;
        let admin = RequestContext::admin(ClientId(0), config.admin_token);
        let mut drives = Vec::with_capacity(devices.len());
        for (s, devs) in group(devices, array.mirrors).into_iter().enumerate() {
            drives.extend(format_group(devs, config, &clock, |first| {
                if s == 0 {
                    first.op_pcreate(&admin, &epoch.note_name(), PARTITION_OBJECT)?;
                    first.force_anchor()?;
                }
                Ok(())
            })?);
        }
        Ok(Self::spawn(
            Self::shards(drives, &epoch, array),
            epoch,
            array,
        ))
    }

    /// Remounts an array previously formatted (or unmounted) with the
    /// same device order (dense: sources first, split targets after,
    /// mirrors adjacent), running per-member crash recovery. The
    /// routing epoch is read back from shard 0's partition table —
    /// highest sequence across its members wins, and members a crash
    /// left behind are repaired to the winner — so a crash anywhere in
    /// a reshard remounts wholly old-epoch or wholly new-epoch. Returns
    /// the per-member [`RecoveryReport`]s in device order.
    ///
    /// Repair and in-doubt resolution go through `Shard::note` and
    /// `Shard::decide` like the running array's: one instant per
    /// group, and a member whose disk faults meanwhile leaves service
    /// (the array mounts degraded) as long as a sibling survives.
    pub fn mount(
        devices: Vec<D>,
        config: DriveConfig,
        array: ArrayConfig,
        clock: SimClock,
    ) -> s4_core::Result<(S4Array<D>, Vec<RecoveryReport>)> {
        array.validate()?;
        let m = array.mirrors;
        let n = shard_count_of(devices.len(), m)?;
        let admin = RequestContext::admin(ClientId(0), config.admin_token);
        let mut drives = Vec::with_capacity(n * m);
        let mut reports = Vec::with_capacity(n * m);
        for dev in devices {
            let (drive, report) = S4Drive::mount_with_report(dev, config, clock.clone())?;
            drives.push(drive);
            reports.push(report);
        }
        // Shard 0's array-internal notes, member by member — read once;
        // the epoch, the repair set and the committed transactions all
        // derive from this listing.
        let mut notes: Vec<Vec<String>> = Vec::with_capacity(m);
        for member in &drives[..m] {
            let listed = member.op_plist(&admin, None)?;
            notes.push(listed.into_iter().map(|(name, _)| name).collect());
        }
        let epoch = notes
            .iter()
            .flatten()
            .filter_map(|name| EpochInfo::parse_note(name))
            .max_by_key(|e| e.seq)
            // Legacy image without a note: a plain n-shard array.
            .unwrap_or_else(|| EpochInfo::initial(n));
        if within_bitmap(epoch)?.live_shards() != n {
            return Err(S4Error::BadRequest(
                "array: device count does not match the persisted epoch",
            ));
        }
        let shards = Self::shards(drives, &epoch, array);

        // Repair divergent shard-0 members (a crash can land between a
        // flip's per-member note installs): everyone gets the winning
        // note, stale notes are dropped. Skipped entirely when the
        // members agree, so a healthy remount performs no writes here.
        let winner = epoch.note_name();
        let stale: BTreeSet<String> = notes
            .iter()
            .flatten()
            .filter(|name| name.starts_with(EPOCH_NOTE_PREFIX) && **name != winner)
            .cloned()
            .collect();
        if !stale.is_empty() || notes.iter().any(|listed| !listed.contains(&winner)) {
            let stale: Vec<String> = stale.into_iter().collect();
            shards[0].note(Some(&winner), &stale, TraceCtx::default())?;
        }

        // Resolve in-doubt cross-shard transactions (presumed abort): a
        // decision note on any shard-0 member means the coordinator
        // passed its commit point, so the transaction commits on every
        // participant; no note means it never did, so it aborts.
        // Aborts run newest-`t0` first — prepares were serial per
        // worker, so an older transaction's effects are stamped before
        // a newer one's `t0` and blanket compensation of the newer
        // transaction can never disturb the older one. Deciding a
        // transaction a member never saw is an idempotent no-op, so the
        // fan-out goes to everyone.
        let decided: BTreeMap<u64, String> = notes
            .iter()
            .flatten()
            .filter_map(|name| Some((parse_note(name)?.0, name.clone())))
            .collect();
        let mut open: BTreeMap<u64, u64> = BTreeMap::new();
        for member in shards.iter().flat_map(|s| &s.members) {
            for (txid, t0) in member.drive().txn_in_doubt() {
                let e = open.entry(txid).or_insert(t0);
                *e = (*e).max(t0);
            }
        }
        let mut order: Vec<(u64, u64)> = open.into_iter().collect();
        order.sort_by_key(|&(txid, t0)| (t0, txid));
        for &(txid, _) in order.iter().rev() {
            for shard in &shards {
                shard.decide(&admin, txid, decided.contains_key(&txid))?;
            }
        }
        let redone = order
            .iter()
            .filter(|(txid, _)| decided.contains_key(txid))
            .count() as u64;
        let undone = order.len() as u64 - redone;
        // Those decisions are queued like a running array's; an anchor
        // on every member makes them durable before any note goes.
        if !order.is_empty() {
            for shard in &shards {
                shard.fan_out(shard.instant(), true, |d| {
                    d.txn_settle()?;
                    d.force_anchor()
                })?;
            }
        }
        // Every transaction with a note is now durably resolved everywhere
        // (a note without any in-doubt participant was already resolved —
        // only its retire had not happened), so the notes can go.
        if !decided.is_empty() {
            let decided: Vec<String> = decided.into_values().collect();
            shards[0].note(None, &decided, TraceCtx::default())?;
        }

        let arr = Self::spawn(shards, epoch, array);
        if redone + undone > 0 {
            arr.txn_reg
                .counter(
                    "s4_txn_recovered_commit_total",
                    "in-doubt transactions redone from a decision note at mount",
                )
                .add(redone);
            arr.txn_reg
                .counter(
                    "s4_txn_recovered_abort_total",
                    "in-doubt transactions rolled back by presumed abort at mount",
                )
                .add(undone);
        }
        Ok((arr, reports))
    }

    /// Builds an array over already-constructed drives (benchmarks use
    /// this to give each shard an independent clock). Drive `i` belongs
    /// to shard `i / mirrors`. The routing epoch starts fresh (no split
    /// in flight) and nothing is persisted until a flip.
    pub fn from_drives(drives: Vec<S4Drive<D>>, array: ArrayConfig) -> s4_core::Result<S4Array<D>> {
        array.validate()?;
        let n = shard_count_of(drives.len(), array.mirrors)?;
        let epoch = within_bitmap(EpochInfo::initial(n))?;
        Ok(Self::spawn(
            Self::shards(drives, &epoch, array),
            epoch,
            array,
        ))
    }

    /// Groups `drives` (dense device order) into the shards of `epoch`,
    /// each member allocating in its shard's ObjectID class (which
    /// matters at `Create` only).
    fn shards(drives: Vec<S4Drive<D>>, epoch: &EpochInfo, array: ArrayConfig) -> Vec<Shard<D>> {
        let groups = group(drives, array.mirrors).into_iter().enumerate();
        groups
            .map(|(p, members)| {
                let (stride, offset) = epoch.class_of_dense(p);
                members.iter().for_each(|d| d.set_oid_class(stride, offset));
                Shard::new(epoch.slot_of_dense(p), members)
            })
            .collect()
    }

    /// Starts one worker per shard (`shards` in dense order) and wraps
    /// them as an array timed on shard 0's clock.
    fn spawn(shards: Vec<Shard<D>>, epoch: EpochInfo, array: ArrayConfig) -> S4Array<D> {
        let clock = shards[0].clock.clone();
        let shards = shards
            .into_iter()
            .map(|s| Arc::new(ShardHandle::spawn(s)))
            .collect();
        let txn_reg = Registry::new();
        unretired_gauge(&txn_reg);
        S4Array {
            routing: Mutex::new(Arc::new(Routing { epoch, shards })),
            rr: AtomicUsize::new(0),
            clock,
            cfg: array,
            reshard_reg: Registry::new(),
            txn_ids: TraceIdGen::new(),
            txn_reg,
            txn_notes: Mutex::new(Vec::new()),
            trace_ids: TraceIdGen::new(),
        }
    }

    /// The array's causal trace context for `ctx`: when tracing is on
    /// and the caller supplied no trace id, a fresh one is minted —
    /// every record the request leaves on any member drive then joins
    /// into one cross-shard trace (DESIGN §6j).
    pub(crate) fn traced(&self, ctx: &RequestContext) -> RequestContext {
        if self.cfg.trace {
            self.trace_ids.stamp(ctx, &self.clock)
        } else {
            *ctx
        }
    }

    /// Snapshot of the current routing (cheap: one lock, one `Arc`
    /// clone).
    pub(crate) fn routing(&self) -> Arc<Routing<D>> {
        self.routing.lock().clone()
    }

    /// Number of live shards (mirror groups), split targets included.
    pub fn shard_count(&self) -> usize {
        self.routing().shards.len()
    }

    /// The current routing epoch.
    pub fn epoch(&self) -> EpochInfo {
        self.routing().epoch
    }

    /// Stable residue-class slot id of the shard at dense index `i`
    /// (metric labels use this; it survives epoch changes).
    pub fn shard_slot(&self, i: usize) -> usize {
        self.routing().shards[i].slot
    }

    /// Dense index of `oid`'s home shard under the current epoch — the
    /// index to hand to [`S4Array::shard_drive`].
    pub fn shard_index_of(&self, oid: ObjectId) -> usize {
        let r = self.routing();
        dense_of(oid, &r.epoch)
    }

    /// Registry of reshard progress metrics (objects copied, catch-up
    /// lag, flip pauses), rendered into the array's expositions.
    pub(crate) fn reshard_registry(&self) -> &Registry {
        &self.reshard_reg
    }

    /// Registry of cross-shard transaction metrics (commits, aborts,
    /// lagging participants, mount-time resolutions), rendered into the
    /// array's expositions.
    pub fn txn_registry(&self) -> &Registry {
        &self.txn_reg
    }

    /// Members per shard.
    pub fn mirror_count(&self) -> usize {
        self.cfg.mirrors
    }

    /// Handle to the first live member of shard `i` — the admin plane
    /// (forensics, detector installation, metrics) reads member drives
    /// in place, and a dead member's logs are unreachable anyway. Falls
    /// back to member 0 when the whole shard is dead.
    pub fn shard_drive(&self, i: usize) -> Arc<S4Drive<D>> {
        let r = self.routing();
        let members = &r.shards[i].members;
        members
            .iter()
            .find(|m| m.state() != MemberState::Dead)
            .unwrap_or(&members[0])
            .drive()
    }

    /// Handle to member `k` of shard `i`, regardless of its state.
    pub fn member_drive(&self, i: usize, k: usize) -> Arc<S4Drive<D>> {
        self.routing().shards[i].members[k].drive()
    }

    /// Applies `step` to every in-sync member of shard `i` at one instant,
    /// as a job on the shard's worker, and returns the first member's
    /// answer. A caller outside the dispatch path changes a mirror group
    /// this way, so that its members see the change at the same point of
    /// their request streams: what an anchor packs decides whether it
    /// records the queued transaction resolutions, and mirrors must
    /// agree on that.
    pub(crate) fn apply_to_shard<T: Send + 'static>(
        &self,
        i: usize,
        step: impl Fn(&S4Drive<D>) -> s4_core::Result<T> + Send + 'static,
    ) -> s4_core::Result<T> {
        let shard = self.routing().shards.get(i).cloned();
        let shard = shard.ok_or(S4Error::BadRequest("array: no such shard"))?;
        shard.call(move |s| s.fan_out(s.instant(), true, step))
    }

    /// Health of every member: `states()[shard][member]`.
    pub fn member_states(&self) -> Vec<Vec<MemberState>> {
        self.routing()
            .shards
            .iter()
            .map(|s| s.members.iter().map(|m| m.state()).collect())
            .collect()
    }

    /// True if shard `i` has lost at least one member (or fallen back
    /// to read-only) — i.e. redundancy is reduced and an operator
    /// should resync a replacement.
    pub fn shard_degraded(&self, i: usize) -> bool {
        self.routing().shards[i]
            .members
            .iter()
            .any(|m| m.state() != MemberState::InSync)
    }

    /// The simulated clock requests are timed on (shard 0's).
    pub(crate) fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Rebuilds member `member` of shard `shard` onto the fresh device
    /// `dev`: the shard worker (so the shard is quiesced) exports the
    /// surviving sibling's logical state, replays it onto `dev`,
    /// verifies every live object's digest and all three reserved
    /// streams match, and only then promotes the rebuilt drive to
    /// `InSync`. Works for any member state — including replacing the
    /// sole, read-only member of an unmirrored shard.
    pub fn resync_member(&self, shard: usize, member: usize, dev: D) -> s4_core::Result<()> {
        let r = self.routing();
        if shard >= r.shards.len() {
            return Err(S4Error::BadRequest("array: no such shard"));
        }
        if member >= r.shards[shard].members.len() {
            return Err(S4Error::BadRequest("array: no such member"));
        }
        r.shards[shard].call(move |s| s.resync(member, dev))
    }

    /// Tears the array down member by member, handing each drive to
    /// `finish` in dense device order.
    fn into_devices(
        self,
        finish: impl Fn(S4Drive<D>) -> s4_core::Result<D>,
    ) -> s4_core::Result<Vec<D>> {
        let routing = Arc::try_unwrap(self.routing.into_inner())
            .map_err(|_| S4Error::BadRequest("array routing still referenced"))?;
        let mut devices = Vec::new();
        for handle in routing.shards {
            let handle = Arc::try_unwrap(handle)
                .map_err(|_| S4Error::BadRequest("array shard still referenced"))?;
            let members = handle.members.clone();
            drop(handle); // closes the queue and joins the worker
            for m in members {
                let slot = Arc::try_unwrap(m)
                    .map_err(|_| S4Error::BadRequest("array member still referenced"))?;
                let drive = Arc::try_unwrap(slot.drive.into_inner())
                    .map_err(|_| S4Error::BadRequest("array drive still referenced"))?;
                devices.push(finish(drive)?);
            }
        }
        Ok(devices)
    }

    /// Shuts down the workers and unmounts every member, returning the
    /// block devices in device order (dense shard order, mirrors within
    /// a shard adjacent — the order [`S4Array::mount`] expects back).
    /// Fails if any member is dead — resync it first, or drop the array
    /// instead. Each mirror group first records its queued transaction
    /// resolutions at one instant (`apply_to_shard`), so that
    /// the members' own unmounts find none to stamp each at its own time.
    pub fn unmount(self) -> s4_core::Result<Vec<D>> {
        for i in 0..self.shard_count() {
            self.apply_to_shard(i, |d| d.txn_settle())?;
        }
        self.into_devices(|drive| drive.unmount())
    }

    /// Drops every member *without* syncing or anchoring and returns
    /// the devices in dense device order — simulated array-wide power
    /// loss for the reshard crash-point campaigns. Volatile state on
    /// every member is lost, exactly as [`S4Drive::crash`].
    pub fn crash(self) -> s4_core::Result<Vec<D>> {
        self.into_devices(|drive| Ok(drive.crash()))
    }
}
