//! Repositories: the long-term storage modules (§3.2). They merge, serve
//! and resolve logs, and hold the **read reservations** that close the
//! concurrent read/write race.
//!
//! Serving a read records a reservation for the reading action's
//! operation class, held until the action resolves. A later `WriteLog`
//! whose fresh entry belongs to a class some *other* reserved invocation
//! depends on is acknowledged with a conflict, and the writing action
//! aborts. Soundness rests on the quorum arithmetic: `ti + tf > n` makes
//! the writer's counted ack set intersect every reader's counted reply
//! set, so one repository always witnesses the pair in some order — either
//! the reader saw the entry, or the writer hears about the reservation.

use crate::messages::{Batcher, Msg};
use crate::protocol::{Mode, Protocol};
use crate::reconfig::ConfigState;
use crate::types::{
    action_id, action_parts, ActionOutcome, Checkpoint, CompactionConfig, LogEntry, MergeEffect,
    ObjId, ObjectLog, VersionedLog, ACTION_SPAN,
};
use quorumcc_core::DependencyRelation;
use quorumcc_model::{ActionId, Classified};
use quorumcc_sim::trace::{ConflictKind, TraceAction};
use quorumcc_sim::{Io, ProcId, SimTime, Timestamp};
use std::collections::{BTreeMap, BTreeSet};

/// Timer token repositories use for anti-entropy rounds.
const TOKEN_ANTI_ENTROPY: u64 = u64::MAX - 1;

/// What a repository's storage keeps across a crash.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Durability {
    /// Stable storage (the paper's model): logs, reservations and
    /// manifests all survive; a crash only silences the site for a while.
    #[default]
    Stable,
    /// In-memory state is lost on crash. With `wal: true` the repository
    /// brings a write-ahead mirror level with the live log before it
    /// acknowledges anything (quorum-counted writes, resolutions,
    /// checkpoints) and recovers by restoring it; with `wal: false` it
    /// comes back amnesiac and relies on peers alone — deliberately
    /// unsafe, for exercising the safety oracle.
    Volatile {
        /// Whether a write-ahead mirror is kept.
        wal: bool,
    },
}

/// Health counters a repository accumulates for telemetry and the safety
/// oracle. The version/epoch shadows behind the regression counts live
/// *outside* the failure model — they survive crashes by design, so the
/// oracle can observe amnesia the protocol failed to mask.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepoCounters {
    /// Stale read frontiers answered with a full log transfer.
    pub full_log_fallbacks: u64,
    /// Crash recoveries performed (volatile sites only).
    pub recoveries: u64,
    /// Times an object's version counter was recorded below its all-time
    /// high. A diagnostic, not a measure: a regressed log is counted again
    /// each time its version is next recorded (a `WriteLog` on it, or a
    /// resolution, GC sweep or fold that moves it), so on a run that
    /// already fails the oracle the count depends on how often that
    /// happens — only zero versus non-zero carries meaning.
    pub version_regressions: u64,
    /// Times the configuration version fell below its all-time high.
    pub config_regressions: u64,
    /// Batch envelopes flushed (0 when batching is off).
    pub batches_flushed: u64,
    /// Status records crossing the wire in either direction — `LogReply`
    /// deltas served to readers plus the statuses carried by arriving
    /// `WriteLog`s, whole views and deltas alike, merged or refused. A
    /// whole view carries every status its sender knows (its `known` map
    /// included); a delta carries those the sender's mirror of this site
    /// lacks, plus the status of each action it ships an entry of. This
    /// is the gossip weight scoped shipping and status GC exist to bound:
    /// without GC a client's `known` map grows with its lifetime, so
    /// every whole view re-ships its entire history.
    pub statuses_shipped: u64,
    /// Status records dropped by status GC (tombstones below a durable
    /// resolution frontier).
    pub statuses_gcd: u64,
    /// High-water of the repository's total status footprint (per-log
    /// statuses plus the scoped resolution table), sampled at resolves.
    pub status_table_peak: u64,
    /// Delta `WriteLog`s refused because this site's log no longer
    /// extended their `base` (a GC fence, a recovery or a journal overflow
    /// in between). Each costs its sender one more round trip with the
    /// whole view; a run of them means mirrors and logs keep parting.
    pub write_delta_refusals: u64,
    /// Resolutions refused because a different one was already recorded
    /// for the action (`Committed` against `Aborted`, or two commit
    /// timestamps): one per `Resolve` and one per status of an arriving
    /// `WriteLog`. The first recorded stands. A correct front-end resolves
    /// an action once, so anything but zero means a faulty peer or a frame
    /// replayed across an amnesiac restart.
    pub conflicting_resolutions: u64,
}

/// One read reservation.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Reservation {
    begin_ts: Timestamp,
    ops: Vec<&'static str>,
}

/// A repository holding per-object logs and reservations.
///
/// Crash behaviour: the simulator drops messages to crashed sites. Under
/// [`Durability::Stable`] (the default, the paper's model) logs and
/// reservations model stable storage, so a recovered repository serves its
/// pre-crash state. Under [`Durability::Volatile`] the in-memory state is
/// discarded at recovery and rebuilt from the write-ahead mirror (if kept)
/// plus [`Msg::SyncReq`] state transfer from peers — see
/// [`Self::on_recover`].
#[derive(Debug, Clone)]
pub struct Repository<S: Classified> {
    proto: Protocol,
    logs: BTreeMap<ObjId, VersionedLog<S::Inv, S::Res>>,
    reservations: BTreeMap<ObjId, BTreeMap<ActionId, Reservation>>,
    /// Reverse index over `reservations`, keyed `(action, obj)`: dropping
    /// what a client reserved up to a resolved action is a short range
    /// scan instead of a walk over every object's map.
    reserved_index: BTreeSet<(ActionId, ObjId)>,
    /// Which resolutions each live log records, keyed `(action, obj)` —
    /// the shape of `reserved_index`. Kept only under scoped planting,
    /// where it holds `(a, o)` iff log `o` stores an entry or a recorded
    /// status of `a`: an arriving status is planted only where the index
    /// has its row, and a resolution visits the logs a range scan names
    /// instead of every log the repository holds. Filled where entries
    /// enter a log ([`Self::absorb`]), pruned where an action's entries and
    /// status leave together (status GC, checkpoint install), rebuilt at
    /// recovery. The logs themselves keep no scope.
    touch_index: BTreeSet<(ActionId, ObjId)>,
    /// Running Σ `status_count()` over `logs`, adjusted by the
    /// before/after difference of every mutation ([`Self::with_log`]; a GC
    /// sweep subtracts what it dropped) — what `status_table_peak` samples
    /// without summing every log.
    status_total: usize,
    peers: Vec<ProcId>,
    anti_entropy: Option<SimTime>,
    /// Storage durability class (chaos layer).
    durability: Durability,
    /// Write-ahead mirrors, maintained only under `Volatile { wal: true }`:
    /// acked mutations are applied to the mirror as well as the live log,
    /// and recovery restores the mirror.
    wal: BTreeMap<ObjId, VersionedLog<S::Inv, S::Res>>,
    /// Per-object version high-waters recorded with the WAL; recovery
    /// advances each restored log past its high-water so client frontiers
    /// never regress (stale ones fall back to full transfers instead).
    durable_versions: BTreeMap<ObjId, u64>,
    /// Oracle shadow (survives crashes by design): per-object all-time
    /// version high-waters, for regression detection.
    shadow_versions: BTreeMap<ObjId, u64>,
    /// Oracle shadow: the highest configuration version ever held.
    max_config_version: u64,
    counters: RepoCounters,
    /// The configuration state this repository enforces; `None` (the
    /// standalone default) admits every version — reconfiguration-aware
    /// clusters always install one.
    state: Option<ConfigState>,
    /// Committed-prefix compaction, when enabled.
    compaction: Option<CompactionConfig>,
    /// Write manifests learned from commit `Resolve`s: action → entries
    /// appended per object. Folding a committed action requires its
    /// manifest (to know the local entry set is complete).
    manifests: BTreeMap<ActionId, Vec<(ObjId, u32)>>,
    /// Outgoing send coalescing (`None` = unbatched, byte-identical to the
    /// pre-batching repository). When a [`Msg::Batch`] of k reads arrives,
    /// the k replies leave as one envelope.
    batcher: Option<Batcher<S::Inv, S::Res>>,
    /// Per-envelope payload counts, drained by telemetry harvest.
    batch_fills: Vec<u64>,
    /// Scoped status planting: resolutions land only in logs the action
    /// touched (plus the [`Self::resolutions`] table for late entries),
    /// instead of in every object's log.
    scoped_statuses: bool,
    /// Status GC sweep hysteresis: `Some(batch)` enables GC, sweeping once
    /// the durable frontiers advanced by `batch` resolutions in total
    /// (each sweep fences affected readers into one full transfer, so
    /// batching keeps the delta-shipping win intact). `None` disables GC.
    gc_batch: Option<u64>,
    /// Repository-wide resolution table, kept under scoped planting: a
    /// late-arriving entry of an already-resolved action finds its status
    /// here instead of having it pre-planted in every log.
    resolutions: BTreeMap<ActionId, ActionOutcome>,
    /// Per-client durable resolution frontiers, learned from the
    /// `durable` field piggybacked on [`Msg::ReadLog`]: every action of
    /// that client with sequence ≤ frontier is resolved *and* the
    /// resolution was acked by every member — its tombstones are
    /// collectable.
    frontiers: BTreeMap<ProcId, u64>,
    /// Total frontier advance since the last GC sweep (hysteresis
    /// accounting).
    pending_advance: u64,
    /// Per client, the durable frontier the last GC sweep read up to.
    swept: BTreeMap<ProcId, u64>,
    /// Test builds: sweep by walking every log; logs handed candidates.
    #[cfg(test)]
    walk: bool,
    #[cfg(test)]
    visits: usize,
    /// Per client, one past the highest action sequence this site has
    /// learned the resolution of — from a `Resolve`, or from a status a
    /// merge changed. A front-end runs one action at a time, so every
    /// lower sequence of that client is resolved too. It keeps
    /// reservations honest without leaning on views re-shipping every
    /// status they know: see [`Self::note_resolved`].
    resolved_upto: BTreeMap<ProcId, u32>,
}

impl<S: Classified> Repository<S> {
    /// An empty repository enforcing `rel` under `mode`.
    pub fn new(mode: Mode, rel: DependencyRelation) -> Self {
        Repository {
            proto: Protocol::new(mode, rel),
            logs: BTreeMap::new(),
            reservations: BTreeMap::new(),
            reserved_index: BTreeSet::new(),
            touch_index: BTreeSet::new(),
            status_total: 0,
            peers: Vec::new(),
            anti_entropy: None,
            durability: Durability::Stable,
            wal: BTreeMap::new(),
            durable_versions: BTreeMap::new(),
            shadow_versions: BTreeMap::new(),
            max_config_version: 0,
            counters: RepoCounters::default(),
            state: None,
            compaction: None,
            manifests: BTreeMap::new(),
            batcher: None,
            batch_fills: Vec::new(),
            scoped_statuses: false,
            gc_batch: None,
            resolutions: BTreeMap::new(),
            frontiers: BTreeMap::new(),
            pending_advance: 0,
            swept: BTreeMap::new(),
            #[cfg(test)]
            walk: false,
            #[cfg(test)]
            visits: 0,
            resolved_upto: BTreeMap::new(),
        }
    }

    /// Configures the gossip-scaling knobs: scoped status planting and
    /// status GC (`gc_batch` resolutions of frontier advance per sweep;
    /// `None` disables GC). Both default off — byte-identical to the
    /// full-shipping repository.
    pub fn with_gossip(mut self, scoped: bool, gc_batch: Option<u64>) -> Self {
        self.scoped_statuses = scoped;
        self.gc_batch = gc_batch.map(|b| b.max(1));
        self
    }

    /// Enables outgoing send coalescing with the given envelope cap
    /// (`cap <= 1` disables it — byte-identical to the seed repository).
    pub fn with_batch(mut self, cap: u32) -> Self {
        self.batcher = (cap > 1).then(|| Batcher::new(cap as usize));
        self
    }

    /// Sets the storage durability class (default [`Durability::Stable`]).
    pub fn with_durability(mut self, durability: Durability) -> Self {
        self.durability = durability;
        self
    }

    /// Sets the peer set used for recovery state transfer. (Also set as a
    /// side effect of [`Self::with_anti_entropy`].)
    pub fn with_peers(mut self, peers: Vec<ProcId>) -> Self {
        self.peers = peers;
        self
    }

    /// The storage durability class.
    pub fn durability(&self) -> Durability {
        self.durability
    }

    /// Health counters for telemetry and the safety oracle.
    pub fn counters(&self) -> RepoCounters {
        debug_assert_eq!(
            self.status_total,
            self.logs
                .values()
                .map(|v| v.log().status_count())
                .sum::<usize>(),
            "running status total drifted from the logs"
        );
        self.counters
    }

    /// Per-envelope payload counts accumulated so far (telemetry harvest).
    pub fn batch_fills(&self) -> &[u64] {
        &self.batch_fills
    }

    /// Routes an outgoing message through the batcher when one is active.
    fn send_msg<IO: Io<Msg<S::Inv, S::Res>> + ?Sized>(
        &mut self,
        ctx: &mut IO,
        to: ProcId,
        msg: Msg<S::Inv, S::Res>,
    ) {
        match &mut self.batcher {
            Some(b) => b.push(ctx, to, msg),
            None => ctx.send(to, msg),
        }
    }

    /// Pushes every log to `peer` as an entry-less `WriteLog` (a CRDT-safe
    /// merge; `req` 0 because repositories ignore the ack it triggers) —
    /// the one shape anti-entropy, `SyncReq` replies and the state
    /// transfer after a committed install all use.
    fn push_logs<IO: Io<Msg<S::Inv, S::Res>> + ?Sized>(&mut self, ctx: &mut IO, peer: ProcId) {
        let cfg = self.version();
        let msgs: Vec<Msg<S::Inv, S::Res>> = (self.logs.iter())
            .map(|(obj, vlog)| Msg::WriteLog {
                obj: *obj,
                req: 0,
                log: vlog.log().clone(),
                entry: None,
                cfg,
                base: 0,
            })
            .collect();
        for m in msgs {
            self.send_msg(ctx, peer, m);
        }
    }

    /// Flushes queued sends (call at the end of each event handler) and
    /// syncs the batching counters.
    fn flush_batch<IO: Io<Msg<S::Inv, S::Res>> + ?Sized>(&mut self, ctx: &mut IO) {
        if let Some(b) = &mut self.batcher {
            b.flush(ctx);
            self.counters.batches_flushed = b.flushed();
            self.batch_fills.extend(b.take_fills());
        }
    }

    /// Enables committed-prefix compaction (and aborted-entry GC): once
    /// every action below a lag-guarded horizon is resolved and fully
    /// present, its entries fold into a checkpoint. Requires prompt
    /// broadcast delivery to stay exact — see the module docs of
    /// [`crate::types`] and DESIGN §3.11.
    pub fn with_compaction(mut self, cc: CompactionConfig) -> Self {
        self.compaction = Some(cc);
        self
    }

    /// Sets the bootstrap configuration state; quorum-bearing messages
    /// carrying an older version are refused with [`Msg::StaleConfig`].
    pub fn with_config(mut self, state: ConfigState) -> Self {
        self.state = Some(state);
        self
    }

    /// The current configuration version (0 when configuration-unaware).
    fn version(&self) -> u64 {
        self.state.as_ref().map_or(0, ConfigState::version)
    }

    /// Admits or refuses a quorum-bearing request: on a stale version,
    /// traces the refusal and pushes the current state back to the sender.
    fn admit<IO: Io<Msg<S::Inv, S::Res>> + ?Sized>(
        &self,
        ctx: &mut IO,
        from: ProcId,
        req: u64,
        cfg: u64,
    ) -> bool {
        let Some(state) = &self.state else {
            return true;
        };
        if state.admit(cfg).is_ok() {
            return true;
        }
        ctx.trace(TraceAction::StaleEpoch {
            seen: cfg,
            current: state.version(),
        });
        ctx.send(
            from,
            Msg::StaleConfig {
                req,
                state: state.clone(),
            },
        );
        false
    }

    /// Enables periodic anti-entropy: every `interval` ticks the
    /// repository pushes its logs to one random peer. Heals divergence
    /// left by narrow quorums, partitions, and lost messages.
    pub fn with_anti_entropy(mut self, peers: Vec<ProcId>, interval: SimTime) -> Self {
        self.peers = peers;
        self.anti_entropy = Some(interval.max(1));
        self
    }

    /// Arms the first anti-entropy timer (call from `on_start`).
    pub fn start<IO: Io<Msg<S::Inv, S::Res>> + ?Sized>(&mut self, ctx: &mut IO) {
        if let Some(iv) = self.anti_entropy {
            // Desynchronize rounds across repositories.
            ctx.set_timer(iv + u64::from(ctx.me() % 5), TOKEN_ANTI_ENTROPY);
        }
    }

    /// Handles a timer (anti-entropy rounds).
    pub fn tick<IO: Io<Msg<S::Inv, S::Res>> + ?Sized>(&mut self, ctx: &mut IO, token: u64) {
        if token != TOKEN_ANTI_ENTROPY {
            return;
        }
        let Some(iv) = self.anti_entropy else { return };
        let peers: Vec<ProcId> = self
            .peers
            .iter()
            .copied()
            .filter(|p| *p != ctx.me())
            .collect();
        if !peers.is_empty() {
            let peer = peers[ctx.rand_below(peers.len() as u64) as usize];
            ctx.trace(TraceAction::AntiEntropy { peer });
            self.push_logs(ctx, peer);
        }
        ctx.set_timer(iv, TOKEN_ANTI_ENTROPY);
        self.flush_batch(ctx);
    }

    /// The log stored for `obj` (empty default).
    pub fn log(&self, obj: ObjId) -> ObjectLog<S::Inv, S::Res> {
        self.logs
            .get(&obj)
            .map(|v| v.log().clone())
            .unwrap_or_default()
    }

    /// The versioned log for `obj`, created on first touch (with
    /// aborted-entry GC when compaction is enabled).
    fn vlog(&mut self, obj: ObjId) -> &mut VersionedLog<S::Inv, S::Res> {
        let gc = self.compaction.is_some();
        self.logs
            .entry(obj)
            .or_insert_with(|| VersionedLog::with_gc(gc))
    }

    /// Applies `f` to `obj`'s live log (created on first touch), keeping
    /// the running status total in step. Every mutation of one live log
    /// goes through here, or through [`Self::absorb`].
    fn with_log<T>(
        &mut self,
        obj: ObjId,
        f: impl FnOnce(&mut VersionedLog<S::Inv, S::Res>) -> T,
    ) -> T {
        let vlog = self.vlog(obj);
        let before = vlog.log().status_count();
        let out = f(vlog);
        let after = vlog.log().status_count();
        self.status_total = self.status_total + after - before;
        out
    }

    /// Merges an arriving view (or delta), then its fresh entry, into
    /// `obj`'s live log, in the order every merge runs: checkpoint,
    /// entries, statuses. Under scoped planting the action of each entry
    /// newly stored gains its index row before the statuses are offered —
    /// a status arriving with its action's first entry is planted — and a
    /// status is offered only where its row exists: one of an action with
    /// neither entry nor status here is irrelevant to this object's
    /// evaluations, and a reader treats a missing status as `Active`. A
    /// refused insert adds no row, because what refuses it (a covering
    /// checkpoint, an aborted tombstone, the entry already being there)
    /// has the row already or never will. Last, an entry of an action that
    /// resolved before it arrived finds its status in the resolution table
    /// (no row, no plant, back then); only the entries stored here can be
    /// such, every earlier one was served here or by the `Resolve` itself.
    /// Returns what merging the view changed.
    fn absorb(
        &mut self,
        obj: ObjId,
        view: &ObjectLog<S::Inv, S::Res>,
        entry: Option<LogEntry<S::Inv, S::Res>>,
    ) -> MergeEffect {
        let (scoped, gc) = (self.scoped_statuses, self.compaction.is_some());
        let stored = (self.logs.entry(obj)).or_insert_with(|| VersionedLog::with_gc(gc));
        let (index, table) = (&mut self.touch_index, &self.resolutions);
        let conflicts = &mut self.counters.conflicting_resolutions;
        let before = stored.log().status_count();
        let mut planted: Vec<ActionId> = Vec::new();
        let effect = stored.merge_with(|log| {
            let mut effect = log.merge_entries(view);
            planted.extend((effect.entries.iter()).filter_map(|ts| Some(view.get(*ts)?.action)));
            if scoped {
                index.extend(planted.iter().map(|a| (*a, obj)));
            }
            effect.statuses = log.merge_statuses(view, |a, held, offered| {
                *conflicts += u64::from(held.is_some_and(|h| h.contradicts(offered)));
                !scoped || index.contains(&(a, obj))
            });
            effect
        });
        if let Some(e) = entry {
            let action = e.action;
            if stored.insert(e) {
                planted.push(action);
                if scoped {
                    index.insert((action, obj));
                }
            }
        }
        for (a, o) in planted.iter().filter_map(|a| Some((*a, *table.get(a)?))) {
            stored.resolve(a, o);
        }
        self.status_total = self.status_total + stored.log().status_count() - before;
        effect
    }

    /// Brings `obj`'s write-ahead mirror level with its live log (when a
    /// mirror is kept): the reader's half of delta shipping pointed at
    /// stable storage, so the cost is what changed since the last call —
    /// or one full copy across a GC fence. Everything acknowledged goes
    /// through here first, which is what lets an acked delta promise
    /// *base + delta*: the base may have come in as gossip, and gossip is
    /// volatile until the next acknowledgment. The mirror copies, it does
    /// not plant: it has no rows in the index until recovery restores it.
    fn sync_wal(&mut self, obj: ObjId) {
        if !self.wal_active() {
            return;
        }
        let Some(live) = self.logs.get(&obj) else {
            return;
        };
        let gc = live.log().gc_aborted();
        let mirror = self
            .wal
            .entry(obj)
            .or_insert_with(|| VersionedLog::with_gc(gc));
        mirror.apply_delta(&live.delta_since(mirror.version()));
    }

    /// The objects whose logs store an entry or a status of `action`
    /// (scoped planting only — the index is not kept otherwise).
    fn touched_by(&self, action: ActionId) -> Vec<ObjId> {
        self.touch_index
            .range((action, ObjId(0))..=(action, ObjId(u16::MAX)))
            .map(|&(_, obj)| obj)
            .collect()
    }

    /// Drops `rows` from the index — call with the pairs whose entries and
    /// status just left their log together: what a GC sweep dropped, what
    /// an installed checkpoint covers.
    fn prune_touches(&mut self, rows: impl IntoIterator<Item = (ActionId, ObjId)>) {
        for row in rows {
            self.touch_index.remove(&row);
        }
    }

    /// Whether `action` lies below the durable resolution frontier in
    /// `frontiers` — resolved, globally acknowledged, tombstones
    /// collectable. Frontiers are counts (`seq < f` is durable), so a
    /// frontier of 0 means "nothing collectable" and sequence 0 itself is
    /// reachable.
    fn below_frontier(frontiers: &BTreeMap<ProcId, u64>, action: ActionId) -> bool {
        let (client, seq) = action_parts(action);
        frontiers.get(&client).is_some_and(|f| u64::from(seq) < *f)
    }

    /// [`Self::below_frontier`] against this repository's frontiers.
    fn is_stale(&self, action: ActionId) -> bool {
        Self::below_frontier(&self.frontiers, action)
    }

    /// Records a client's advertised durable frontier and runs a GC sweep
    /// once the accumulated advance crosses the configured batch.
    fn note_frontier(&mut self, client: ProcId, durable: u64) {
        let Some(batch) = self.gc_batch else { return };
        let cur = self.frontiers.entry(client).or_insert(0);
        if durable <= *cur {
            return;
        }
        self.pending_advance += durable - *cur;
        *cur = durable;
        if self.pending_advance >= batch {
            self.pending_advance = 0;
            self.sweep_gc();
        }
    }

    /// Drops the status tombstones below the durable frontiers, from the
    /// per-object logs and the scoped resolution table. Logs that lost
    /// anything fence their readers into one full transfer (see
    /// [`VersionedLog::gc_below`]).
    ///
    /// Under scoped planting it reads what went stale since the last sweep,
    /// per client the `ActionId` range `[swept, frontier)`: it drops those
    /// table entries and hands each log, once, its rows' actions that the
    /// table did not record committed (a committed status always has its
    /// entry beside it). A `Resolve` replayed behind the range and a
    /// recovery re-arm it. Full planting: every log's stale statuses are read.
    fn sweep_gc(&mut self) {
        let frontiers = &self.frontiers;
        let stale = |a: ActionId| Self::below_frontier(frontiers, a);
        let walk = !self.scoped_statuses;
        #[cfg(test)]
        let walk = walk || self.walk;
        let table = self.resolutions.len();
        let mut candidates: BTreeMap<ObjId, Vec<ActionId>> = BTreeMap::new();
        if walk {
            for (obj, v) in &self.logs {
                let held = v.log().statuses().map(|(a, _)| a);
                candidates.insert(*obj, held.filter(|a| stale(*a)).collect());
            }
            self.resolutions.retain(|a, _| !stale(*a));
        } else {
            for (&client, &f) in frontiers {
                let at = |seq: u64| action_id(client, seq.min(u64::from(ACTION_SPAN)) as u32);
                let (lo, hi) = (at(self.swept.insert(client, f).unwrap_or(0).min(f)), at(f));
                if lo == hi {
                    continue;
                }
                let commits: Vec<ActionId> = (self.resolutions.extract_if(lo..hi, |_, _| true))
                    .filter_map(|(a, o)| matches!(o, ActionOutcome::Committed(_)).then_some(a))
                    .collect();
                // Clients ascend, so each log's candidates come sorted.
                for &(a, obj) in self.touch_index.range((lo, ObjId(0))..(hi, ObjId(0))) {
                    if commits.binary_search(&a).is_err() {
                        candidates.entry(obj).or_default().push(a);
                    }
                }
            }
        }
        let mut gone: Vec<(ActionId, ObjId)> = Vec::new();
        #[cfg(test)]
        {
            self.visits += candidates.len();
        }
        for (obj, stale) in candidates {
            let vlog = self.logs.get_mut(&obj).expect("a row names a live log");
            gone.extend(vlog.gc_below(&stale).into_iter().map(|a| (a, obj)));
        }
        self.counters.statuses_gcd += (gone.len() + table - self.resolutions.len()) as u64;
        self.status_total -= gone.len();
        // A purge moves the version (the reader fence); record it like any
        // other move, so a crash right after the sweep recovers past it.
        // The fence holds for the write-ahead mirror too: it is a reader,
        // and takes the purged log whole.
        let mut moved: Vec<ObjId> = gone.iter().map(|&(_, obj)| obj).collect();
        moved.dedup();
        for obj in moved {
            self.note_version(obj);
            if self.wal.contains_key(&obj) {
                self.sync_wal(obj);
            }
        }
        self.prune_touches(gone);
    }

    /// Strips below-frontier content from an incoming view (and its fresh
    /// entry) unless it is known committed. Actions below a durable
    /// frontier are resolved everywhere and their tombstones may already
    /// be collected here; without this filter a stale write-back or a
    /// duplicated frame would resurrect an aborted entry as a phantom
    /// `Active` lock that nothing can ever clear again.
    fn sanitize_intake(
        &self,
        obj: ObjId,
        log: &mut ObjectLog<S::Inv, S::Res>,
        entry: &mut Option<crate::types::LogEntry<S::Inv, S::Res>>,
    ) {
        if self.frontiers.is_empty() {
            return;
        }
        let mut acts: BTreeSet<ActionId> = log.entries().map(|e| e.action).collect();
        acts.extend(log.statuses().map(|(a, _)| a));
        if let Some(e) = entry.as_ref() {
            acts.insert(e.action);
        }
        for a in acts {
            if !self.is_stale(a) {
                continue;
            }
            let committed = matches!(log.status(a), ActionOutcome::Committed(_))
                || self
                    .logs
                    .get(&obj)
                    .is_some_and(|v| matches!(v.log().status(a), ActionOutcome::Committed(_)))
                || matches!(self.resolutions.get(&a), Some(ActionOutcome::Committed(_)));
            if !committed {
                log.remove_action(a);
                if entry.as_ref().is_some_and(|e| e.action == a) {
                    *entry = None;
                }
            }
        }
    }

    /// Whether a write-ahead mirror is being kept.
    fn wal_active(&self) -> bool {
        matches!(self.durability, Durability::Volatile { wal: true })
    }

    /// Records `obj`'s current version in the WAL high-water (when one is
    /// kept) and in the crash-surviving shadow, counting a regression when
    /// the live counter fell below the shadow.
    fn note_version(&mut self, obj: ObjId) {
        let v = self.logs.get(&obj).map_or(0, VersionedLog::version);
        if self.wal_active() {
            self.durable_versions.insert(obj, v);
        }
        let hw = self.shadow_versions.entry(obj).or_insert(0);
        if v < *hw {
            self.counters.version_regressions += 1;
        } else {
            *hw = v;
        }
    }

    /// Records the configuration version against its crash-surviving
    /// shadow, counting a regression when it fell below the all-time high.
    fn note_config_version(&mut self) {
        let v = self.version();
        if v < self.max_config_version {
            self.counters.config_regressions += 1;
        } else {
            self.max_config_version = v;
        }
    }

    /// Crash-recovery hook, called by the host when a crash window
    /// ends. [`Durability::Stable`] sites kept everything and do nothing.
    /// Volatile sites lost their in-memory state: with a WAL they restore
    /// the write-ahead mirror and advance each log past its durable
    /// version high-water, so a client holding a pre-crash frontier falls
    /// back to a full transfer instead of being served an empty delta;
    /// without one they come back amnesiac (and the oracle's shadow
    /// counters record the regression). Either way they then ask every
    /// peer for state transfer with [`Msg::SyncReq`].
    pub fn on_recover<IO: Io<Msg<S::Inv, S::Res>> + ?Sized>(&mut self, ctx: &mut IO) {
        let Durability::Volatile { wal } = self.durability else {
            return;
        };
        self.counters.recoveries += 1;
        if wal {
            // Reservations and manifests ride in the write-ahead manifest
            // too: both are recorded before the mutation they guard acks.
            self.logs = self.wal.clone();
            // A mirror below the high-water missed changes (gossip merged
            // after the last acknowledgment). Step *past* the high-water:
            // a reader exactly at it holds those changes, and a delta
            // write cut against it must be refused, not merged into a log
            // that lost its base.
            for (obj, hw) in self.durable_versions.clone() {
                if self.vlog(obj).version() < hw {
                    self.vlog(obj).advance_version(hw + 1);
                }
            }
        } else {
            self.logs.clear();
            self.reservations.clear();
            self.reserved_index.clear();
            self.manifests.clear();
        }
        // Both are functions of the stored logs, and the live logs now
        // equal the mirrors (or nothing at all, for an amnesiac).
        self.status_total = self.logs.values().map(|v| v.log().status_count()).sum();
        self.touch_index.clear();
        self.swept.clear();
        if self.scoped_statuses {
            for (obj, v) in &self.logs {
                let actions =
                    (v.log().entries().map(|e| e.action)).chain(v.log().statuses().map(|(a, _)| a));
                self.touch_index.extend(actions.map(|a| (a, *obj)));
            }
        }
        let objs: Vec<ObjId> = self.shadow_versions.keys().copied().collect();
        for obj in objs {
            self.note_version(obj);
        }
        self.note_config_version();
        let me = ctx.me();
        for peer in self.peers.clone() {
            if peer != me {
                ctx.send(peer, Msg::SyncReq);
            }
        }
    }

    /// Handles one message, replying through `ctx`, then flushes any
    /// coalesced replies (a [`Msg::Batch`] of k reads answers with one
    /// envelope of k replies).
    pub fn handle<IO: Io<Msg<S::Inv, S::Res>> + ?Sized>(
        &mut self,
        ctx: &mut IO,
        from: ProcId,
        msg: Msg<S::Inv, S::Res>,
    ) {
        self.handle_inner(ctx, from, msg);
        self.flush_batch(ctx);
    }

    fn handle_inner<IO: Io<Msg<S::Inv, S::Res>> + ?Sized>(
        &mut self,
        ctx: &mut IO,
        from: ProcId,
        msg: Msg<S::Inv, S::Res>,
    ) {
        match msg {
            Msg::Batch(msgs) => {
                // Unwrap in order; the wrapper flushes once for the whole
                // envelope, so replies coalesce back into one envelope.
                for m in msgs {
                    self.handle_inner(ctx, from, m);
                }
            }
            Msg::ReadLog {
                obj,
                req,
                action,
                begin_ts,
                op,
                cfg,
                since,
                durable,
            } => {
                if !self.admit(ctx, from, req, cfg) {
                    return;
                }
                if durable > 0 {
                    self.note_frontier(from, durable);
                }
                // A read for an action below its own client's durable
                // frontier is a duplicated frame: the action resolved long
                // ago and nothing will ever clear a reservation recorded
                // for it now (the tombstone it relied on is collectable).
                // Likewise a straggler of an action this site already knows
                // resolved (the third copy of a broadcast read, overtaken by
                // the `Resolve`): views no longer re-ship the statuses a
                // site holds, so nothing would come by to clear it.
                if !self.is_stale(action) && !self.knows_resolved(action) {
                    let slot = self
                        .reservations
                        .entry(obj)
                        .or_default()
                        .entry(action)
                        .or_insert(Reservation {
                            begin_ts,
                            ops: Vec::new(),
                        });
                    if !slot.ops.contains(&op) {
                        slot.ops.push(op);
                    }
                    self.reserved_index.insert((action, obj));
                    ctx.trace(TraceAction::Reserve {
                        obj: u64::from(obj.0),
                        action: u64::from(action.0),
                    });
                }
                let delta = self.vlog(obj).delta_since(since);
                self.counters.statuses_shipped += delta.statuses.len() as u64;
                if delta.full && since > 0 {
                    // The reader's frontier fell off the change journal —
                    // correct but a bandwidth cliff; warn and count it.
                    self.counters.full_log_fallbacks += 1;
                    ctx.trace(TraceAction::FullLogFallback {
                        obj: u64::from(obj.0),
                        since,
                    });
                }
                self.send_msg(ctx, from, Msg::LogReply { obj, req, delta });
            }
            Msg::WriteLog {
                obj,
                req,
                mut log,
                mut entry,
                cfg,
                base,
            } => {
                // Entry-carrying writes are quorum-counted and must be
                // current; entry-less propagation is a CRDT-safe merge and
                // is always welcome (anti-entropy heals across epochs).
                if entry.is_some() && !self.admit(ctx, from, req, cfg) {
                    return;
                }
                self.counters.statuses_shipped += log.status_count() as u64;
                // A delta is `view ∖ mirror`: it merges to what the view
                // would only while this log still contains the mirror.
                if base > 0 && !self.logs.get(&obj).is_some_and(|v| v.extends(base)) {
                    self.counters.write_delta_refusals += 1;
                    self.send_msg(ctx, from, Msg::WriteRefused { obj, req });
                    return;
                }
                if self.gc_batch.is_some() {
                    self.sanitize_intake(obj, &mut log, &mut entry);
                }
                let conflict = entry.as_ref().and_then(|e| self.conflicting_reader(obj, e));
                if let (Some(with), Some(e)) = (conflict, entry.as_ref()) {
                    ctx.trace(TraceAction::Conflict {
                        obj: u64::from(obj.0),
                        action: u64::from(e.action.0),
                        with: u64::from(with.0),
                        kind: ConflictKind::Reservation,
                    });
                }
                // Acked (entry-carrying) writes are what front-ends count
                // toward final quorums, so they are what must be durable
                // before the ack leaves. Entry-less gossip merges stay
                // volatile until the next acknowledgment.
                let acked = entry.is_some();
                let effect = self.absorb(obj, &log, entry);
                if let Some(cp) = log.checkpoint().filter(|_| effect.checkpoint) {
                    self.prune_touches(cp.covered().keys().map(|a| (*a, obj)));
                }
                // Resolutions gossip through merged views; a lost Resolve
                // broadcast must not leave reservations stuck forever.
                let stored = self.logs[&obj].log();
                let mut learned: Vec<ActionId> = (effect.statuses.iter().copied())
                    .filter(|a| stored.status(*a).is_resolved())
                    .collect();
                if let Some(cp) = stored.checkpoint().filter(|_| effect.checkpoint) {
                    learned.extend(cp.covered().keys().copied());
                }
                for a in learned {
                    self.note_resolved(a);
                }
                self.maybe_compact(obj, ctx.now());
                self.note_version(obj);
                if acked {
                    self.sync_wal(obj);
                }
                self.send_msg(ctx, from, Msg::WriteAck { obj, req, conflict });
            }
            Msg::Resolve {
                action,
                outcome,
                entries,
            } => {
                // Commit manifests unlock folding; aborted entries are
                // garbage regardless, so aborts carry none — and only a
                // fold ever drops one, so a site that never folds keeps
                // none (it would keep one per commit for as long as it
                // runs).
                if matches!(outcome, ActionOutcome::Committed(_))
                    && !entries.is_empty()
                    && self.folding().is_some()
                {
                    self.manifests.insert(action, entries);
                }
                // Under scoped planting the status lands in the logs the
                // index names (none is asked whether it wants it) and in
                // the table, which serves entries arriving later; full
                // planting means every log, so there the walk is the
                // point. Wherever a different resolution is recorded
                // already it stands — the table takes this one only if no
                // log refused it — and the message is counted once.
                let mut conflicting = false;
                let targets: Vec<ObjId> = if self.scoped_statuses {
                    self.touched_by(action)
                } else {
                    self.logs.keys().copied().collect()
                };
                for obj in targets {
                    let (changed, refused) = self.with_log(obj, |v| {
                        let held = v.log().status_entry(action);
                        let changed = v.resolve(action, outcome);
                        (changed, held.is_some_and(|h| h.contradicts(outcome)))
                    });
                    conflicting |= refused;
                    if changed {
                        self.note_version(obj);
                    }
                    // A mirror exists once an acknowledged write made one.
                    if self.wal.contains_key(&obj) {
                        self.sync_wal(obj);
                    }
                }
                if self.scoped_statuses && outcome.is_resolved() && !conflicting {
                    let first = *self.resolutions.entry(action).or_insert(outcome);
                    conflicting = first.contradicts(outcome);
                    // A replayed `Resolve` behind the swept frontier: the
                    // next sweep reads its range again.
                    let (client, seq) = action_parts(action);
                    if let Some(swept) = self.swept.get_mut(&client) {
                        *swept = (*swept).min(u64::from(seq));
                    }
                }
                self.counters.conflicting_resolutions += u64::from(conflicting);
                if self.gc_batch.is_some() && outcome.is_resolved() {
                    self.send_msg(ctx, from, Msg::ResolveAck { action });
                }
                let total = self.resolutions.len() + self.status_total;
                self.counters.status_table_peak = self.counters.status_table_peak.max(total as u64);
                if outcome.is_resolved() {
                    self.note_resolved(action);
                    // A fold's `now − lag` bound moves with the clock, not
                    // with this action, so any log may have become
                    // foldable: with compaction on this stays a full pass.
                    if self.folding().is_some() {
                        let objs: Vec<ObjId> = self.logs.keys().copied().collect();
                        for obj in objs {
                            if self.maybe_compact(obj, ctx.now()) {
                                self.note_version(obj);
                            }
                        }
                    }
                }
            }
            Msg::Install { req, state } => {
                let newer = state.version() > self.version();
                if newer {
                    ctx.trace(TraceAction::ConfigAdopt {
                        epoch: state.epoch(),
                        version: state.version(),
                    });
                    let stable_members = match &state {
                        ConfigState::Stable(c) => Some(c.members.clone()),
                        ConfigState::Joint { .. } => None,
                    };
                    self.state = Some(state);
                    // Committing a stable config triggers state transfer:
                    // push logs to the new membership so freshly added
                    // members catch up without waiting for anti-entropy.
                    if let Some(members) = stable_members {
                        // Compaction keeps this transfer bounded: the
                        // checkpoint rides inside the log in place of its
                        // folded prefix.
                        let me = ctx.me();
                        for peer in members.into_iter().filter(|p| *p != me) {
                            self.push_logs(ctx, peer);
                        }
                    }
                }
                self.note_config_version();
                ctx.send(
                    from,
                    Msg::InstallAck {
                        req,
                        version: self.version(),
                    },
                );
            }
            Msg::SyncReq => {
                // A recovering peer asks for state transfer.
                ctx.trace(TraceAction::AntiEntropy { peer: from });
                self.push_logs(ctx, from);
            }
            // Repositories ignore front-end-bound messages.
            Msg::LogReply { .. }
            | Msg::WriteAck { .. }
            | Msg::WriteRefused { .. }
            | Msg::InstallAck { .. }
            | Msg::ResolveAck { .. }
            | Msg::StaleConfig { .. } => {}
        }
    }

    /// Whether another action holds a reservation whose invocation depends
    /// on the class of the fresh entry `e`.
    ///
    /// Static mode exempts readers that began *before* the writer: they
    /// serialize before it and never needed to see it. Hybrid and dynamic
    /// readers commit after the writer, so every related reservation
    /// conflicts.
    fn conflicting_reader(
        &self,
        obj: ObjId,
        e: &crate::types::LogEntry<S::Inv, S::Res>,
    ) -> Option<ActionId> {
        let class = S::event_class(&e.event.inv, &e.event.res);
        let reservations = self.reservations.get(&obj)?;
        for (action, r) in reservations {
            if *action == e.action {
                continue;
            }
            if self.proto.mode() == Mode::StaticTs && r.begin_ts < e.begin_ts {
                continue;
            }
            if r.ops.iter().any(|op| self.proto.related(op, class)) {
                return Some(*action);
            }
        }
        None
    }

    /// Whether this site has learned that `action` resolved.
    fn knows_resolved(&self, action: ActionId) -> bool {
        let (client, seq) = action_parts(action);
        self.resolved_upto.get(&client).is_some_and(|n| seq < *n)
    }

    /// Records that `action` resolved and removes every reservation its
    /// client holds up to it, via the reverse index (a short range scan; a
    /// no-op for the common case of a client that reserved nothing here, or
    /// whose reservations were already dropped).
    ///
    /// Together with the straggler check in `ReadLog` this keeps the site
    /// from ever holding a reservation for an action it knows resolved —
    /// by what it learned itself, not by what the next view happens to
    /// carry: a delta `WriteLog` omits every status its sender's mirror
    /// shows this site to hold already.
    fn note_resolved(&mut self, action: ActionId) {
        let (client, seq) = action_parts(action);
        let upto = self.resolved_upto.entry(client).or_insert(0);
        *upto = (*upto).max(seq + 1);
        let held: Vec<(ActionId, ObjId)> = self
            .reserved_index
            .range((action_id(client, 0), ObjId(0))..=(action, ObjId(u16::MAX)))
            .copied()
            .collect();
        for (a, obj) in held {
            self.reserved_index.remove(&(a, obj));
            if let Some(res) = self.reservations.get_mut(&obj) {
                res.remove(&a);
            }
        }
    }

    /// The compaction settings, if this repository ever folds a log.
    ///
    /// Static mode never folds: it serializes by Begin timestamps, so a
    /// late-beginning reader may still need to order itself *before*
    /// arbitrarily old committed entries (`TooLate` detection needs them).
    fn folding(&self) -> Option<CompactionConfig> {
        (self.compaction).filter(|_| self.proto.mode() != Mode::StaticTs)
    }

    /// Folds the committed prefix of `obj`'s log into a checkpoint when it
    /// is safe to do so.
    ///
    /// The fold bound is the minimum of
    /// * `now − lag` (entries and resolutions still in flight commit above
    ///   it, because commit timestamps exceed entry timestamps),
    /// * every *active* entry's timestamp (its action will commit above
    ///   its own entries),
    /// * every ineligible committed action's commit timestamp (no
    ///   manifest yet, or entries still missing locally).
    ///
    /// Only committed actions with complete local entry sets and commit
    /// timestamp strictly below the bound fold. That makes every fold a
    /// *prefix of the global commit order as known locally*, so any two
    /// repositories' checkpoints nest — the precondition for exact
    /// checkpoint adoption on merge.
    ///
    /// Returns whether a checkpoint was installed (the log's version moved).
    fn maybe_compact(&mut self, obj: ObjId, now: SimTime) -> bool {
        let Some(cc) = self.folding() else {
            return false;
        };
        let Some(vlog) = self.logs.get(&obj) else {
            return false;
        };
        let log = vlog.log();
        if log.len() < cc.min_entries {
            return false;
        }

        let mut bound = Timestamp {
            counter: now.saturating_sub(cc.lag),
            node: 0,
        };
        let mut counts: BTreeMap<ActionId, u32> = BTreeMap::new();
        for e in log.entries() {
            match log.status(e.action) {
                ActionOutcome::Active => bound = bound.min(e.ts),
                ActionOutcome::Committed(_) => *counts.entry(e.action).or_default() += 1,
                ActionOutcome::Aborted => {}
            }
        }
        let mut candidates: Vec<(Timestamp, ActionId)> = Vec::new();
        for (a, n) in &counts {
            let ActionOutcome::Committed(cts) = log.status(*a) else {
                continue;
            };
            if log.checkpoint().is_some_and(|cp| cp.covers(*a).is_some()) {
                continue;
            }
            let complete = self
                .manifests
                .get(a)
                .map(|m| m.iter().find(|(o, _)| *o == obj).map_or(0, |(_, k)| *k))
                .is_some_and(|expect| expect == *n);
            if complete {
                candidates.push((cts, *a));
            } else {
                bound = bound.min(cts);
            }
        }
        candidates.retain(|(cts, _)| *cts < bound);
        if candidates.is_empty() {
            return false;
        }
        candidates.sort();

        // Replay the folded entries — in (commit ts, entry ts) order, the
        // same order `Protocol::evaluate` would sort them — into one state
        // per op class, each restricted to that class's dependency
        // closure (evaluation replays closure-filtered sub-histories, so
        // the fold must too).
        let ops = S::op_classes();
        let mut states: BTreeMap<&'static str, S::State> = match log
            .checkpoint()
            .and_then(|cp| cp.state_as::<BTreeMap<&'static str, S::State>>())
        {
            Some(prev) => prev.clone(),
            None => ops.iter().map(|op| (*op, S::initial())).collect(),
        };
        let mut covered: BTreeMap<ActionId, Timestamp> = log
            .checkpoint()
            .map(|cp| cp.covered().clone())
            .unwrap_or_default();
        let mut folded = log.checkpoint().map_or(0, Checkpoint::folded);

        let fold_set: BTreeMap<ActionId, Timestamp> =
            candidates.iter().map(|(cts, a)| (*a, *cts)).collect();
        let mut replay: Vec<_> = log
            .entries()
            .filter_map(|e| fold_set.get(&e.action).map(|cts| (*cts, e.ts, e)))
            .collect();
        replay.sort_by_key(|(cts, ts, _)| (*cts, *ts));
        for op in &ops {
            let closure = self.proto.closure_classes(op);
            let state = states.get_mut(op).expect("state per op class");
            for (_, _, e) in &replay {
                if closure.contains(&S::event_class(&e.event.inv, &e.event.res)) {
                    S::step(state, &e.event.inv);
                }
            }
        }
        folded += replay.len() as u64;
        covered.extend(fold_set.iter().map(|(a, cts)| (*a, *cts)));

        let cp = Checkpoint::new(states, covered, folded);
        self.with_log(obj, |v| v.install_checkpoint(cp));
        // Checkpoints subsume acked entries, so they must be at least as
        // durable as what they fold.
        self.sync_wal(obj);
        self.prune_touches(fold_set.keys().map(|a| (*a, obj)));

        // Drop manifests that every listed object has now folded.
        let fully_folded: Vec<ActionId> = fold_set
            .keys()
            .filter(|a| {
                self.manifests.get(a).is_some_and(|m| {
                    m.iter().all(|(o, _)| {
                        self.logs.get(o).is_some_and(|v| {
                            v.log()
                                .checkpoint()
                                .is_some_and(|cp| cp.covers(**a).is_some())
                        })
                    })
                })
            })
            .copied()
            .collect();
        for a in fully_folded {
            self.manifests.remove(&a);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{action_id, entry_of, ActionOutcome};
    use quorumcc_core::minimal_static_relation;
    use quorumcc_model::spec::ExploreBounds;
    use quorumcc_model::testtypes::{QInv, QRes, TestQueue};
    use quorumcc_sim::{CollectIo, Driver, FaultPlan, Input, NetworkConfig, Output, Sim};

    fn ts(c: u64, n: u32) -> Timestamp {
        Timestamp {
            counter: c,
            node: n,
        }
    }

    fn queue_rel() -> DependencyRelation {
        minimal_static_relation::<TestQueue>(ExploreBounds {
            depth: 4,
            ..ExploreBounds::default()
        })
        .relation
    }

    /// A probe process that fires a script at repository 0 and records the
    /// replies (exercises Repository through the real engine).
    struct Probe {
        script: Vec<Msg<QInv, QRes>>,
        replies: Vec<Msg<QInv, QRes>>,
    }

    enum Node {
        Repo(Box<Repository<TestQueue>>),
        Probe(Probe),
    }

    impl Driver<Msg<QInv, QRes>> for Node {
        fn handle<IO: Io<Msg<QInv, QRes>> + ?Sized>(
            &mut self,
            io: &mut IO,
            input: Input<Msg<QInv, QRes>>,
        ) {
            match (self, input) {
                (Node::Probe(p), Input::Start) => {
                    for m in p.script.drain(..) {
                        io.send(0, m);
                    }
                }
                (Node::Repo(r), Input::Deliver { from, msg }) => r.handle(io, from, msg),
                (Node::Probe(p), Input::Deliver { msg, .. }) => p.replies.push(msg),
                _ => {}
            }
        }
    }

    fn run_probe(script: Vec<Msg<QInv, QRes>>) -> Vec<Msg<QInv, QRes>> {
        run_probe_on(Repository::new(Mode::Hybrid, queue_rel()), script)
    }

    fn run_probe_on(
        repo: Repository<TestQueue>,
        script: Vec<Msg<QInv, QRes>>,
    ) -> Vec<Msg<QInv, QRes>> {
        let probe = Probe {
            script,
            replies: Vec::new(),
        };
        let mut sim = Sim::new(
            vec![Node::Repo(Box::new(repo)), Node::Probe(probe)],
            NetworkConfig {
                min_delay: 1,
                max_delay: 1,
                ..NetworkConfig::default()
            },
            FaultPlan::none(),
            1,
        );
        sim.run(1000);
        let Node::Probe(p) = sim.process(1) else {
            panic!("probe expected")
        };
        p.replies.clone()
    }

    #[test]
    fn write_then_read_roundtrip() {
        let mut view = ObjectLog::new();
        view.insert(entry_of::<TestQueue>(
            ts(1, 1),
            ActionId(0),
            ts(1, 1),
            QInv::Enq(1),
            QRes::Ok,
        ));
        let replies = run_probe(vec![
            Msg::WriteLog {
                obj: ObjId(0),
                req: 1,
                log: view,
                entry: None,
                cfg: 0,
                base: 0,
            },
            Msg::ReadLog {
                obj: ObjId(0),
                req: 2,
                action: ActionId(9),
                begin_ts: ts(5, 1),
                op: "Deq",
                cfg: 0,
                since: 0,
                durable: 0,
            },
        ]);
        assert_eq!(replies.len(), 2);
        assert!(replies
            .iter()
            .any(|m| matches!(m, Msg::LogReply { delta, .. } if delta.entries.len() == 1)));
    }

    #[test]
    fn reservation_blocks_dependent_writer() {
        // Action 9 reserves a Deq; action 0 then writes an Enq entry:
        // Deq ≥ Enq/Ok → conflict reported.
        let entry =
            entry_of::<TestQueue>(ts(10, 2), ActionId(0), ts(10, 2), QInv::Enq(1), QRes::Ok);
        let replies = run_probe(vec![
            Msg::ReadLog {
                obj: ObjId(0),
                req: 1,
                action: ActionId(9),
                begin_ts: ts(5, 1),
                op: "Deq",
                cfg: 0,
                since: 0,
                durable: 0,
            },
            Msg::WriteLog {
                obj: ObjId(0),
                req: 2,
                log: ObjectLog::new(),
                entry: Some(entry),
                cfg: 0,
                base: 0,
            },
        ]);
        assert!(
            replies.iter().any(|m| matches!(
                m,
                Msg::WriteAck {
                    conflict: Some(a), ..
                } if *a == ActionId(9)
            )),
            "{replies:?}"
        );
    }

    #[test]
    fn unrelated_writer_passes_reservations() {
        // An Enq reservation does not block another Enq (no Enq ≥ Enq pair
        // in ≥S).
        let entry =
            entry_of::<TestQueue>(ts(10, 2), ActionId(0), ts(10, 2), QInv::Enq(1), QRes::Ok);
        let replies = run_probe(vec![
            Msg::ReadLog {
                obj: ObjId(0),
                req: 1,
                action: ActionId(9),
                begin_ts: ts(5, 1),
                op: "Enq",
                cfg: 0,
                since: 0,
                durable: 0,
            },
            Msg::WriteLog {
                obj: ObjId(0),
                req: 2,
                log: ObjectLog::new(),
                entry: Some(entry),
                cfg: 0,
                base: 0,
            },
        ]);
        assert!(replies
            .iter()
            .any(|m| matches!(m, Msg::WriteAck { conflict: None, .. })));
    }

    #[test]
    fn resolve_clears_reservations_and_marks_status() {
        let entry =
            entry_of::<TestQueue>(ts(10, 2), ActionId(0), ts(10, 2), QInv::Enq(1), QRes::Ok);
        let replies = run_probe(vec![
            Msg::ReadLog {
                obj: ObjId(0),
                req: 1,
                action: ActionId(9),
                begin_ts: ts(5, 1),
                op: "Deq",
                cfg: 0,
                since: 0,
                durable: 0,
            },
            Msg::Resolve {
                action: ActionId(9),
                outcome: ActionOutcome::Aborted,
                entries: Vec::new(),
            },
            Msg::WriteLog {
                obj: ObjId(0),
                req: 2,
                log: ObjectLog::new(),
                entry: Some(entry),
                cfg: 0,
                base: 0,
            },
        ]);
        assert!(
            replies
                .iter()
                .any(|m| matches!(m, Msg::WriteAck { conflict: None, .. })),
            "{replies:?}"
        );
    }

    #[test]
    fn own_reservation_never_conflicts() {
        let entry = entry_of::<TestQueue>(ts(10, 2), ActionId(9), ts(5, 1), QInv::Enq(1), QRes::Ok);
        let replies = run_probe(vec![
            Msg::ReadLog {
                obj: ObjId(0),
                req: 1,
                action: ActionId(9),
                begin_ts: ts(5, 1),
                op: "Deq",
                cfg: 0,
                since: 0,
                durable: 0,
            },
            Msg::WriteLog {
                obj: ObjId(0),
                req: 2,
                log: ObjectLog::new(),
                entry: Some(entry),
                cfg: 0,
                base: 0,
            },
        ]);
        assert!(replies
            .iter()
            .any(|m| matches!(m, Msg::WriteAck { conflict: None, .. })));
    }

    fn epoch_state(epoch: u64) -> ConfigState {
        ConfigState::Stable(crate::reconfig::Config::new(
            epoch,
            [0],
            quorumcc_quorum::ThresholdAssignment::new(1),
        ))
    }

    #[test]
    fn stale_request_is_refused_with_the_current_state() {
        let repo = Repository::new(Mode::Hybrid, queue_rel()).with_config(epoch_state(1));
        // version = 3; a cfg=0 read must bounce, and no reservation or
        // reply should be produced.
        let replies = run_probe_on(
            repo,
            vec![Msg::ReadLog {
                obj: ObjId(0),
                req: 7,
                action: ActionId(9),
                begin_ts: ts(5, 1),
                op: "Deq",
                cfg: 0,
                since: 0,
                durable: 0,
            }],
        );
        assert_eq!(replies.len(), 1, "{replies:?}");
        assert!(matches!(
            &replies[0],
            Msg::StaleConfig { req: 7, state } if state.version() == 3
        ));
    }

    #[test]
    fn current_request_is_served_and_propagation_crosses_epochs() {
        let repo = Repository::new(Mode::Hybrid, queue_rel()).with_config(epoch_state(1));
        let mut view = ObjectLog::new();
        view.insert(entry_of::<TestQueue>(
            ts(1, 1),
            ActionId(0),
            ts(1, 1),
            QInv::Enq(1),
            QRes::Ok,
        ));
        let replies = run_probe_on(
            repo,
            vec![
                // Entry-less propagation with a stale cfg still merges.
                Msg::WriteLog {
                    obj: ObjId(0),
                    req: 1,
                    log: view,
                    entry: None,
                    cfg: 0,
                    base: 0,
                },
                Msg::ReadLog {
                    obj: ObjId(0),
                    req: 2,
                    action: ActionId(9),
                    begin_ts: ts(5, 1),
                    op: "Deq",
                    cfg: 3,
                    since: 0,
                    durable: 0,
                },
            ],
        );
        assert!(replies
            .iter()
            .any(|m| matches!(m, Msg::LogReply { delta, .. } if delta.entries.len() == 1)));
    }

    #[test]
    fn install_adopts_newer_configurations_only() {
        let repo = Repository::new(Mode::Hybrid, queue_rel()).with_config(epoch_state(1));
        let replies = run_probe_on(
            repo,
            vec![
                Msg::Install {
                    req: 1,
                    state: epoch_state(2), // version 5: adopt
                },
                Msg::Install {
                    req: 2,
                    state: epoch_state(0), // version 1: refuse, re-ack current
                },
            ],
        );
        let versions: Vec<u64> = replies
            .iter()
            .filter_map(|m| match m {
                Msg::InstallAck { version, .. } => Some(*version),
                _ => None,
            })
            .collect();
        assert_eq!(versions, vec![5, 5], "{replies:?}");
    }

    #[test]
    fn static_mode_exempts_earlier_readers() {
        let mut repo: Repository<TestQueue> = Repository::new(Mode::StaticTs, queue_rel());
        // Reader began at 5; writer began at 10 → reader serializes first,
        // no conflict.
        repo.reservations.entry(ObjId(0)).or_default().insert(
            ActionId(9),
            Reservation {
                begin_ts: ts(5, 1),
                ops: vec!["Deq"],
            },
        );
        let e_late =
            entry_of::<TestQueue>(ts(12, 2), ActionId(0), ts(10, 2), QInv::Enq(1), QRes::Ok);
        assert_eq!(repo.conflicting_reader(ObjId(0), &e_late), None);
        // Writer began at 2 < 5 → the reader should have seen it: conflict.
        let e_early =
            entry_of::<TestQueue>(ts(12, 2), ActionId(0), ts(2, 2), QInv::Enq(1), QRes::Ok);
        assert_eq!(
            repo.conflicting_reader(ObjId(0), &e_early),
            Some(ActionId(9))
        );
    }

    // ---- the touch index (DESIGN §3.16, "one record of scope") ----

    type TestIo = CollectIo<Msg<QInv, QRes>>;

    /// A scoped, status-collecting repository — the configuration the
    /// index exists for.
    fn scoped_repo(rel: &DependencyRelation, durability: Durability) -> Repository<TestQueue> {
        Repository::new(Mode::Hybrid, rel.clone())
            .with_gossip(true, Some(4))
            .with_durability(durability)
    }

    fn enq(action: ActionId, obj_ts: u64) -> LogEntry<QInv, QRes> {
        let (client, _) = action_parts(action);
        entry_of::<TestQueue>(
            ts(obj_ts, client),
            action,
            ts(obj_ts, client),
            QInv::Enq(1),
            QRes::Ok,
        )
    }

    fn write(obj: ObjId, entry: LogEntry<QInv, QRes>) -> Msg<QInv, QRes> {
        Msg::WriteLog {
            obj,
            req: 0,
            log: ObjectLog::new(),
            entry: Some(entry),
            cfg: 0,
            base: 0,
        }
    }

    fn read(obj: ObjId, action: ActionId, since: u64, durable: u64) -> Msg<QInv, QRes> {
        Msg::ReadLog {
            obj,
            req: 0,
            action,
            begin_ts: ts(1, 0),
            op: "Enq",
            cfg: 0,
            since,
            durable,
        }
    }

    /// Whether `log` stores an entry or records a status of `action`.
    fn stores(log: &ObjectLog<QInv, QRes>, action: ActionId) -> bool {
        log.status_entry(action).is_some() || log.entries().any(|e| e.action == action)
    }

    /// The derived state against the content of the stored logs it is
    /// derived from: the index holds `(a, o)` iff live log `o` stores an
    /// entry or records a status of `a`; a status recorded without an
    /// entry is an aborted action's tombstone (anything else was planted
    /// out of scope); the running status total is the sum; and a
    /// write-ahead mirror is its live log as of some earlier version (the
    /// log itself when the versions agree).
    ///
    /// Under full planting there is no index, and a status lands in every
    /// log, entry or not.
    fn audit(repo: &Repository<TestQueue>, at: &str) {
        let mut content = BTreeSet::new();
        for (obj, v) in (repo.logs.iter()).filter(|_| repo.scoped_statuses) {
            content.extend(v.log().entries().map(|e| (e.action, *obj)));
            for (a, o) in v.log().statuses() {
                content.insert((a, *obj));
                let bare = !v.log().entries().any(|e| e.action == a);
                assert!(
                    !bare || o == ActionOutcome::Aborted,
                    "{at}: {obj} records {o:?} of {a:?}, which has no entry there"
                );
            }
        }
        assert_eq!(repo.touch_index, content, "{at}: index");
        let statuses: usize = repo.logs.values().map(|v| v.log().status_count()).sum();
        assert_eq!(repo.status_total, statuses, "{at}: status total");
        for (obj, w) in &repo.wal {
            let live = &repo.logs[obj];
            assert!(w.version() <= live.version(), "{at}: {obj} mirror ahead");
            if w.version() == live.version() {
                assert_eq!(w.log(), live.log(), "{at}: {obj} mirror differs");
            }
        }
    }

    /// A repository beside its reference twin, which sweeps by walking
    /// every log (`walk`): both are handed every message and every
    /// recovery, and must then hold the same logs — versions and journals
    /// included — write-ahead mirrors, index, resolution table and
    /// counters, and have sent the same replies.
    struct Paired {
        repo: Repository<TestQueue>,
        walk: Repository<TestQueue>,
        ios: [TestIo; 2],
    }

    impl Paired {
        fn new(repo: Repository<TestQueue>, me: ProcId, seed: u64) -> Self {
            let walk = Repository {
                walk: true,
                ..repo.clone()
            };
            let ios = [CollectIo::new(me, seed), CollectIo::new(me, seed)];
            Paired { repo, walk, ios }
        }

        fn set_now(&mut self, now: u64) {
            self.ios.iter_mut().for_each(|io| io.set_now(now));
        }

        /// Hands `msg` to both and returns what the repository sent back.
        fn exchange(
            &mut self,
            from: ProcId,
            msg: Msg<QInv, QRes>,
            at: &str,
        ) -> Vec<Msg<QInv, QRes>> {
            let walked = exchange(&mut self.walk, &mut self.ios[1], from, msg.clone());
            let replies = exchange(&mut self.repo, &mut self.ios[0], from, msg);
            self.check(&replies, &walked, at);
            replies
        }

        fn recover(&mut self, at: &str) {
            self.repo.on_recover(&mut self.ios[0]);
            self.walk.on_recover(&mut self.ios[1]);
            let [a, b] = &mut self.ios;
            let (a, b) = (a.take_outputs(), b.take_outputs());
            assert_eq!(
                format!("{a:?}"),
                format!("{b:?}"),
                "{at}: recovery sends differ"
            );
            self.check(&[], &[], at);
        }

        fn check(&self, replies: &[Msg<QInv, QRes>], walked: &[Msg<QInv, QRes>], at: &str) {
            assert_eq!(
                format!("{replies:?}"),
                format!("{walked:?}"),
                "{at}: replies differ"
            );
            let state = |r: &Repository<TestQueue>| {
                let derived = (&r.touch_index, &r.resolutions, r.status_total);
                format!("{:?}", (&r.logs, &r.wal, derived, r.counters))
            };
            assert_eq!(
                state(&self.repo),
                state(&self.walk),
                "{at}: the sweeps part"
            );
        }

        /// Whether the repository would read `action` again only because
        /// something re-armed it: it lies behind the swept frontier.
        fn swept_past(&self, action: ActionId) -> bool {
            Repository::<TestQueue>::below_frontier(&self.repo.swept, action)
        }

        /// Hands the repository a view of `obj` and counts the entries it
        /// stored of actions behind the swept frontier — what a state
        /// transfer brings in late, and no sweep reads again (they arrive
        /// as commits, with their statuses).
        fn transfer(
            &mut self,
            from: ProcId,
            obj: ObjId,
            view: ObjectLog<QInv, QRes>,
            at: &str,
        ) -> usize {
            let held = self.repo.log(obj);
            let late: Vec<Timestamp> = (view.entries())
                .filter(|e| self.swept_past(e.action) && held.get(e.ts).is_none())
                .map(|e| e.ts)
                .collect();
            self.exchange(from, gossip(obj, view), at);
            let stored = self.repo.log(obj);
            late.iter().filter(|ts| stored.get(**ts).is_some()).count()
        }
    }

    /// One scripted action: its entries are fixed when it opens, delivered
    /// (to either repository, any number of times, in any order) whenever
    /// the script says, and its outcome is fixed when first resolved.
    struct Planned {
        action: ActionId,
        entries: Vec<(ObjId, LogEntry<QInv, QRes>)>,
        outcome: Option<ActionOutcome>,
    }

    impl Planned {
        fn manifest(&self) -> Vec<(ObjId, u32)> {
            let mut counts: BTreeMap<ObjId, u32> = BTreeMap::new();
            for (obj, _) in &self.entries {
                *counts.entry(*obj).or_default() += 1;
            }
            counts.into_iter().collect()
        }
    }

    /// Random scripts against a pair of status-collecting repositories
    /// (so checkpoints and views cross between them), scoped and fully
    /// planted, each beside a twin that sweeps by walking every log:
    /// interleaved reads, quorum writes and gossip, duplicated and
    /// reordered resolutions, entries arriving after their resolution,
    /// frontier advances that trigger sweeps, folds, crashes with and
    /// without a write-ahead mirror. The derived state is audited, and
    /// each repository held to its twin, after every message.
    #[test]
    fn index_and_status_total_stay_exact_under_random_scripts() {
        use rand::rngs::StdRng;
        use rand::{Rng as _, SeedableRng as _};

        const CLIENTS: u32 = 3;
        let rel = queue_rel();
        // What the scripts reached, summed over seeds: a property that
        // never sweeps, folds, adopts or recovers proves little — nor
        // one that never delivers an action behind the swept frontier (a
        // duplicated `Resolve`, a state transfer) or recovers a site that
        // swept.
        let (mut gcd, mut folds, mut recoveries, mut late) = (0, 0, 0, 0);
        let (mut stale_resolves, mut transfers, mut rearmed) = (0, 0, 0);
        for seed in 0..120u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let objects: u16 = rng.gen_range(1..=64);
            let durability = match seed % 3 {
                0 => Durability::Stable,
                1 => Durability::Volatile { wal: true },
                _ => Durability::Volatile { wal: false },
            };
            let compaction = (seed % 2 == 0).then_some(CompactionConfig {
                lag: 20,
                min_entries: 2,
            });
            let scoped = (seed / 6) % 4 != 3;
            let mut repos: Vec<Paired> = (0..2)
                .map(|me| {
                    let r = scoped_repo(&rel, durability)
                        .with_gossip(scoped, Some(4))
                        .with_peers(vec![0, 1]);
                    let r = match compaction {
                        Some(cc) => r.with_compaction(cc),
                        None => r,
                    };
                    Paired::new(r, me, seed)
                })
                .collect();
            let mut plans: Vec<Vec<Planned>> = (0..CLIENTS).map(|_| Vec::new()).collect();
            // Per repository and client: the sequences whose resolution it
            // processed, which bounds the frontier a client may advertise.
            let mut acked: Vec<Vec<BTreeSet<u32>>> =
                vec![vec![BTreeSet::new(); CLIENTS as usize]; 2];
            let mut clock = 1u64;

            for step in 0..400 {
                let at = format!("seed {seed} step {step}");
                clock += rng.gen_range(0..8u64);
                for p in &mut repos {
                    p.set_now(clock);
                }
                let c = rng.gen_range(0..CLIENTS);
                let pid = 10 + c;
                let plan = &mut plans[c as usize];
                let kind = rng.gen_range(0..100u32);
                let mut to_resolve = None;
                let msg = if kind < 40 {
                    // Deliver one entry of an action — usually the newest,
                    // sometimes an old (perhaps long-resolved) one.
                    if plan.is_empty() || rng.gen_bool(0.4) {
                        let action = action_id(pid, plan.len() as u32);
                        let entries = (0..rng.gen_range(1..=3u32))
                            .map(|_| {
                                clock += 1;
                                (ObjId(rng.gen_range(0..objects)), enq(action, clock))
                            })
                            .collect();
                        plan.push(Planned {
                            action,
                            entries,
                            outcome: None,
                        });
                    }
                    let newest = plan.len() - 1;
                    let i = if rng.gen_bool(0.7) {
                        newest
                    } else {
                        rng.gen_range(0..=newest)
                    };
                    let p = &plan[i];
                    let (obj, e) = p.entries[rng.gen_range(0..p.entries.len())].clone();
                    // The view: other entries of this object the client
                    // may have read, some with their resolutions.
                    let mut view = ObjectLog::new();
                    for other in plans.iter().flatten() {
                        for (o, e) in &other.entries {
                            if *o == obj && rng.gen_bool(0.2) {
                                view.insert(e.clone());
                                if let Some(out) = other.outcome.filter(|_| rng.gen_bool(0.5)) {
                                    view.resolve(other.action, out);
                                }
                            }
                        }
                    }
                    let entry = if rng.gen_bool(0.6) {
                        Some(e)
                    } else {
                        view.insert(e);
                        None
                    };
                    Msg::WriteLog {
                        obj,
                        req: 0,
                        log: view,
                        entry,
                        cfg: 0,
                        base: 0,
                    }
                } else if kind < 65 && !plan.is_empty() {
                    // Resolve any action, again if it already was.
                    let i = rng.gen_range(0..plan.len());
                    let p = &mut plan[i];
                    let outcome = *p.outcome.get_or_insert_with(|| {
                        clock += 1;
                        if rng.gen_bool(0.7) {
                            ActionOutcome::Committed(ts(clock, pid))
                        } else {
                            ActionOutcome::Aborted
                        }
                    });
                    to_resolve = Some((p.action, outcome));
                    Msg::Resolve {
                        action: p.action,
                        outcome,
                        entries: match outcome {
                            ActionOutcome::Committed(_) => p.manifest(),
                            _ => Vec::new(),
                        },
                    }
                } else if kind < 90 {
                    // A read advertising the longest prefix every
                    // repository has acknowledged.
                    let durable = (0u32..)
                        .take_while(|seq| acked.iter().all(|r| r[c as usize].contains(seq)))
                        .count() as u64;
                    let action = action_id(pid, plan.len().saturating_sub(1) as u32);
                    let obj = ObjId(rng.gen_range(0..objects));
                    read(obj, action, rng.gen_range(0..4u64), durable)
                } else if kind < 95 {
                    // State transfer: one repository's log, pushed to the
                    // other.
                    let src = rng.gen_range(0..2usize);
                    let obj = ObjId(rng.gen_range(0..objects));
                    let view = repos[src].repo.log(obj);
                    let dst = &mut repos[1 - src];
                    transfers += dst.transfer(src as ProcId, obj, view, &at);
                    audit(&dst.repo, &at);
                    continue;
                } else {
                    let p = &mut repos[rng.gen_range(0..2usize)];
                    rearmed += usize::from(!p.repo.swept.is_empty());
                    p.recover(&at);
                    audit(&p.repo, &at);
                    if durability == (Durability::Volatile { wal: false }) {
                        assert!(p.repo.touch_index.is_empty(), "{at}: amnesiac index");
                    }
                    continue;
                };
                for (r, p) in repos.iter_mut().enumerate() {
                    if !rng.gen_bool(0.8) {
                        continue; // lost on the way to this repository
                    }
                    if let Some((action, _)) = to_resolve {
                        stale_resolves += usize::from(p.swept_past(action));
                    }
                    p.exchange(pid, msg.clone(), &at);
                    let repo = &p.repo;
                    audit(repo, &at);
                    if let Some((action, outcome)) = to_resolve {
                        // Every stored log that holds anything of the
                        // action now holds its outcome.
                        acked[r][c as usize].insert(action_parts(action).1);
                        for v in repo.logs.values().chain(repo.wal.values()) {
                            if stores(v.log(), action) {
                                assert_eq!(v.log().status(action), outcome, "{at}: plant");
                            }
                        }
                    } else if let Msg::WriteLog { obj, .. } = &msg {
                        // Entries that arrived after their resolution found
                        // it in the table.
                        let log = repo.log(*obj);
                        for e in log.entries() {
                            if let Some(out) = repo.resolutions.get(&e.action) {
                                assert_eq!(log.status(e.action), *out, "{at}: late plant");
                                late += 1;
                            }
                        }
                    }
                }
            }
            for p in &repos {
                let c = p.repo.counters();
                gcd += c.statuses_gcd;
                recoveries += c.recoveries;
                folds += (p.repo.logs.values())
                    .filter(|v| v.log().checkpoint().is_some())
                    .count();
            }
        }
        assert!(
            gcd > 0 && folds > 0 && recoveries > 0 && late > 0,
            "scripts too tame: gcd {gcd} folds {folds} recoveries {recoveries} late {late}"
        );
        assert!(
            stale_resolves > 0 && transfers > 0 && rearmed > 0,
            "no late path: stale resolves {stale_resolves} transfers {transfers} \
             re-armed recoveries {rearmed}"
        );
    }

    /// A sweep's work follows what went stale: over 4 096 logs of
    /// committed entries (every eighth action aborted), a frontier advance
    /// of 64 hands candidates to no more logs than those 64 actions' index
    /// rows name, where the walk visits every log — and both collect the
    /// same.
    #[test]
    fn a_sweep_visits_only_the_logs_its_stale_actions_name() {
        const LOGS: u32 = 4_096;
        let mut repo =
            Repository::<TestQueue>::new(Mode::Hybrid, queue_rel()).with_gossip(true, Some(64));
        let mut io: TestIo = CollectIo::new(0, 1);
        for seq in 0..2 * LOGS {
            let (action, obj) = (action_id(7, seq), ObjId((seq % LOGS) as u16));
            repo.handle(&mut io, 7, write(obj, enq(action, u64::from(seq) + 1)));
            let (outcome, entries) = match seq % 8 {
                0 => (ActionOutcome::Aborted, Vec::new()),
                _ => (
                    ActionOutcome::Committed(ts(u64::from(seq) + 10_000, 7)),
                    vec![(obj, 1)],
                ),
            };
            let resolve = Msg::Resolve {
                action,
                outcome,
                entries,
            };
            repo.handle(&mut io, 7, resolve);
        }
        let mut walk = Repository {
            walk: true,
            ..repo.clone()
        };
        let reader = action_id(7, 2 * LOGS);
        for r in [&mut repo, &mut walk] {
            r.handle(&mut io, 7, read(ObjId(0), reader, 0, 64));
            r.visits = 0;
        }
        let span = (action_id(7, 64), ObjId(0))..(action_id(7, 128), ObjId(0));
        let named: BTreeSet<ObjId> = repo.touch_index.range(span).map(|(_, o)| *o).collect();
        assert_eq!(named.len(), 64, "one log per stale action");
        for r in [&mut repo, &mut walk] {
            r.handle(&mut io, 7, read(ObjId(0), reader, 0, 128));
        }
        assert!(repo.visits <= named.len(), "{} visits", repo.visits);
        assert_eq!(walk.visits, LOGS as usize);
        let gcd = repo.counters().statuses_gcd;
        assert_eq!(
            gcd,
            128 + 16,
            "the table's 128 entries, eight tombstones a sweep"
        );
        assert_eq!(repo.counters(), walk.counters());
        assert_eq!(format!("{:?}", repo.logs), format!("{:?}", walk.logs));
    }

    // ---- delta writes (DESIGN §3.11, "the write half") ----

    /// Hands `msg` to `repo` and returns what it sent back.
    fn exchange(
        repo: &mut Repository<TestQueue>,
        io: &mut TestIo,
        from: ProcId,
        msg: Msg<QInv, QRes>,
    ) -> Vec<Msg<QInv, QRes>> {
        repo.handle(io, from, msg);
        (io.take_outputs().into_iter())
            .filter_map(|out| match out {
                Output::Send { msg, .. } => Some(msg),
                Output::SetTimer { .. } => None,
            })
            .collect()
    }

    fn refused(replies: &[Msg<QInv, QRes>]) -> bool {
        replies
            .iter()
            .any(|m| matches!(m, Msg::WriteRefused { .. }))
    }

    /// One final-quorum write as both repositories of the pair see it: the
    /// whole view, and the view cut against the writer's mirror.
    #[derive(Clone)]
    struct Write {
        from: ProcId,
        obj: ObjId,
        view: ObjectLog<QInv, QRes>,
        entry: LogEntry<QInv, QRes>,
        cut: ObjectLog<QInv, QRes>,
        base: u64,
    }

    impl Write {
        fn msg(&self, log: &ObjectLog<QInv, QRes>, base: u64) -> Msg<QInv, QRes> {
            Msg::WriteLog {
                obj: self.obj,
                req: 0,
                log: log.clone(),
                entry: Some(self.entry.clone()),
                cfg: 0,
                base,
            }
        }
    }

    /// Random scripts against a *pair* of repositories fed the same
    /// traffic, except that `whole` receives every final-quorum write as a
    /// whole view and `cut` receives `view ∖ mirror` with the mirror's
    /// version as `base` — the mirrors being the ones the script's clients
    /// keep of `cut`, advanced only by its `LogReply`s. Interleaved: reads,
    /// gossip merges, resolutions, duplicated and reordered write frames,
    /// frontier advances that sweep (and fence), folds, and crashes of all
    /// three durability classes. After every message the two logs are
    /// equal; a refused delta is followed by the whole view, which restores
    /// equality; and what a write-ahead site acknowledged survives its
    /// crashes, base included.
    #[test]
    fn delta_writes_leave_the_log_a_whole_view_would() {
        use rand::rngs::StdRng;
        use rand::{Rng as _, SeedableRng as _};

        const CLIENTS: u32 = 3;
        let rel = queue_rel();
        // What the scripts reached, summed over seeds.
        let (mut deltas, mut slimmer, mut refusals) = (0u64, 0u64, 0u64);
        let (mut fences, mut wal_recoveries, mut folds) = (0u64, 0u64, 0usize);
        let (mut stale_resolves, mut transfers, mut rearmed) = (0usize, 0usize, 0usize);
        for seed in 0..120u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let objects: u16 = rng.gen_range(1..=4);
            let durability = match seed % 3 {
                0 => Durability::Stable,
                1 => Durability::Volatile { wal: true },
                _ => Durability::Volatile { wal: false },
            };
            let compaction = (seed % 2 == 0).then_some(CompactionConfig {
                lag: 20,
                min_entries: 2,
            });
            let scoped = (seed / 6) % 4 != 3;
            let build = || {
                let r = scoped_repo(&rel, durability).with_gossip(scoped, Some(4));
                let r = match compaction {
                    Some(cc) => r.with_compaction(cc),
                    None => r,
                };
                Paired::new(r, 0, seed)
            };
            let (mut whole, mut cut) = (build(), build());
            let mut plans: Vec<Vec<Planned>> = (0..CLIENTS).map(|_| Vec::new()).collect();
            let mut mirrors: BTreeMap<(u32, ObjId), VersionedLog<QInv, QRes>> = BTreeMap::new();
            let mut resolved: Vec<BTreeSet<u32>> = vec![BTreeSet::new(); CLIENTS as usize];
            let mut sent: Vec<Write> = Vec::new();
            // Entries a write-ahead site acknowledged, each with the view
            // it came in.
            let mut acked: Vec<Write> = Vec::new();
            let mut clock = 1u64;

            for step in 0..400 {
                let at = format!("seed {seed} step {step}");
                clock += rng.gen_range(0..8u64);
                whole.set_now(clock);
                cut.set_now(clock);
                let c = rng.gen_range(0..CLIENTS);
                let pid = 10 + c;
                let kind = rng.gen_range(0..100u32);
                let mut touched = None;
                if kind < 45 {
                    // A final-quorum write — now and then a frame sent
                    // before, arriving again or late.
                    let write = if !sent.is_empty() && rng.gen_bool(0.15) {
                        sent[rng.gen_range(0..sent.len())].clone()
                    } else {
                        let plan = &mut plans[c as usize];
                        if plan.last().is_none_or(|p| p.outcome.is_some()) {
                            let action = action_id(pid, plan.len() as u32);
                            let entries = (0..rng.gen_range(1..=3u32))
                                .map(|_| {
                                    clock += 1;
                                    (ObjId(rng.gen_range(0..objects)), enq(action, clock))
                                })
                                .collect();
                            plan.push(Planned {
                                action,
                                entries,
                                outcome: None,
                            });
                        }
                        let p = plans[c as usize].last().expect("an open action");
                        let (obj, entry) = p.entries[rng.gen_range(0..p.entries.len())].clone();
                        // The view: usually what the client last read from
                        // this site, plus entries (some with their
                        // resolutions) it read elsewhere, plus its own
                        // earlier entries and outcomes.
                        let mirror = mirrors.get(&(c, obj));
                        let mut view = match mirror {
                            Some(m) if rng.gen_bool(0.8) => m.log().clone(),
                            _ => ObjectLog::new(),
                        };
                        for other in plans.iter().flatten() {
                            let own = other.action == p.action;
                            for (o, e) in &other.entries {
                                if *o == obj && e.ts < entry.ts && (own || rng.gen_bool(0.2)) {
                                    view.insert(e.clone());
                                    if let Some(out) = other.outcome.filter(|_| rng.gen_bool(0.5)) {
                                        view.resolve(other.action, out);
                                    }
                                }
                            }
                        }
                        for known in plans[c as usize].iter().rev().take(4) {
                            if let Some(out) = known.outcome {
                                view.resolve(known.action, out);
                            }
                        }
                        let (cut, base) = match mirror {
                            Some(m) if m.version() > 0 => (view.minus(m.log()), m.version()),
                            _ => (view.clone(), 0),
                        };
                        let write = Write {
                            from: pid,
                            obj,
                            view,
                            entry,
                            cut,
                            base,
                        };
                        sent.push(write.clone());
                        write
                    };
                    let w = &write;
                    let replies = whole.exchange(w.from, w.msg(&w.view, 0), &at);
                    assert!(!refused(&replies), "{at}: a whole view refused");
                    let replies = cut.exchange(w.from, w.msg(&w.cut, w.base), &at);
                    if refused(&replies) {
                        assert!(w.base > 0, "{at}: a whole view refused");
                        refusals += 1;
                        // The client's answer: the whole view, and the
                        // mirror forgotten.
                        mirrors.remove(&(w.from - 10, w.obj));
                        let replies = cut.exchange(w.from, w.msg(&w.view, 0), &at);
                        assert!(!refused(&replies), "{at}: the whole resend refused");
                    } else if w.base > 0 {
                        deltas += 1;
                        slimmer += u64::from(w.cut.len() < w.view.len());
                    }
                    if durability == (Durability::Volatile { wal: true }) {
                        acked.push(write.clone());
                    }
                    touched = Some(write.obj);
                } else if kind < 65 && !plans[c as usize].is_empty() {
                    // Resolve any action, again if it already was.
                    let plan = &mut plans[c as usize];
                    let i = rng.gen_range(0..plan.len());
                    let p = &mut plan[i];
                    let outcome = *p.outcome.get_or_insert_with(|| {
                        clock += 1;
                        if rng.gen_bool(0.7) {
                            ActionOutcome::Committed(ts(clock, pid))
                        } else {
                            ActionOutcome::Aborted
                        }
                    });
                    let msg = Msg::Resolve {
                        action: p.action,
                        outcome,
                        entries: match outcome {
                            ActionOutcome::Committed(_) => p.manifest(),
                            _ => Vec::new(),
                        },
                    };
                    stale_resolves += usize::from(cut.swept_past(p.action));
                    whole.exchange(pid, msg.clone(), &at);
                    cut.exchange(pid, msg, &at);
                    resolved[c as usize].insert(action_parts(p.action).1);
                } else if kind < 88 {
                    // A read at the mirror's version, advertising the
                    // longest resolved prefix; its reply advances the
                    // mirror. Both sites serve the same bytes.
                    let obj = ObjId(rng.gen_range(0..objects));
                    let durable = (0u32..)
                        .take_while(|seq| resolved[c as usize].contains(seq))
                        .count() as u64;
                    let since = mirrors.get(&(c, obj)).map_or(0, VersionedLog::version);
                    let action = action_id(pid, plans[c as usize].len() as u32);
                    let msg = read(obj, action, since, durable);
                    let a = whole.exchange(pid, msg.clone(), &at);
                    let b = cut.exchange(pid, msg, &at);
                    assert_eq!(format!("{a:?}"), format!("{b:?}"), "{at}: replies differ");
                    let [Msg::LogReply { delta, .. }] = b.as_slice() else {
                        panic!("{at}: expected one reply, got {b:?}");
                    };
                    mirrors
                        .entry((c, obj))
                        .or_insert_with(|| VersionedLog::with_gc(compaction.is_some()))
                        .apply_delta(delta);
                    touched = Some(obj);
                } else if kind < 95 {
                    // Gossip: a view nobody waits for an ack of.
                    let obj = ObjId(rng.gen_range(0..objects));
                    let mut view = ObjectLog::new();
                    for other in plans.iter().flatten() {
                        for (o, e) in &other.entries {
                            if *o == obj && rng.gen_bool(0.3) {
                                view.insert(e.clone());
                            }
                        }
                    }
                    whole.exchange(1, gossip(obj, view.clone()), &at);
                    transfers += cut.transfer(1, obj, view, &at);
                    touched = Some(obj);
                } else {
                    rearmed += usize::from(!cut.repo.swept.is_empty());
                    whole.recover(&at);
                    cut.recover(&at);
                    match durability {
                        Durability::Stable => {}
                        Durability::Volatile { wal: true } => {
                            wal_recoveries += 1;
                            // Every acknowledged entry is still there —
                            // stored, folded, or dropped as aborted — and
                            // so is the base its delta was cut against.
                            for w in &acked {
                                let log = cut.repo.log(w.obj);
                                let held = |e: &LogEntry<QInv, QRes>| {
                                    log.get(e.ts).is_some()
                                        || log.status(e.action).is_resolved()
                                        || cut.repo.is_stale(e.action)
                                };
                                assert!(held(&w.entry), "{at}: lost acked {:?}", w.entry);
                                for e in w.view.entries() {
                                    assert!(held(e), "{at}: lost the acked base {e:?}");
                                }
                            }
                        }
                        Durability::Volatile { wal: false } => {
                            // An amnesiac site restarts its versions, so a
                            // mirror of its previous life is detectably
                            // stale only while it is ahead. The script's
                            // clients find out at once: each writes, is
                            // refused, and forgets the mirror; and no frame
                            // of the previous life is still in flight.
                            // (What happens otherwise is the class's
                            // standing hazard: DESIGN §3.11.)
                            sent.clear();
                            for ((client, obj), m) in std::mem::take(&mut mirrors) {
                                if m.version() == 0 {
                                    continue;
                                }
                                let msg = Msg::WriteLog {
                                    obj,
                                    req: 0,
                                    log: ObjectLog::new(),
                                    entry: None,
                                    cfg: 0,
                                    base: m.version(),
                                };
                                let replies = cut.exchange(10 + client, msg, &at);
                                assert!(refused(&replies), "{at}: amnesiac took a stale base");
                                refusals += 1;
                            }
                        }
                    }
                    for obj in (0..objects).map(ObjId) {
                        let (a, b) = (whole.repo.log(obj), cut.repo.log(obj));
                        assert_eq!(a, b, "{at}: {obj} after recovery");
                    }
                }
                if let Some(obj) = touched {
                    let (a, b) = (whole.repo.log(obj), cut.repo.log(obj));
                    assert_eq!(a, b, "{at}: {obj} differs");
                }
                audit(&cut.repo, &at);
            }
            for obj in (0..objects).map(ObjId) {
                assert_eq!(
                    whole.repo.log(obj),
                    cut.repo.log(obj),
                    "seed {seed}: {obj} at the end"
                );
            }
            let c = cut.repo.counters();
            assert_eq!(whole.repo.counters().write_delta_refusals, 0);
            fences += c.statuses_gcd;
            folds += (cut.repo.logs.values())
                .filter(|v| v.log().checkpoint().is_some())
                .count();
        }
        assert!(
            deltas > 0
                && slimmer > 0
                && refusals > 0
                && fences > 0
                && wal_recoveries > 0
                && folds > 0,
            "scripts too tame: deltas {deltas} slimmer {slimmer} refusals {refusals} \
             fences {fences} wal recoveries {wal_recoveries} folds {folds}"
        );
        assert!(
            stale_resolves > 0 && transfers > 0 && rearmed > 0,
            "no late path: stale resolves {stale_resolves} transfers {transfers} \
             re-armed recoveries {rearmed}"
        );
    }

    /// Reads `obj` at `since` and applies the reply to `mirror`.
    fn sync_mirror(
        repo: &mut Repository<TestQueue>,
        io: &mut TestIo,
        obj: ObjId,
        mirror: &mut VersionedLog<QInv, QRes>,
    ) {
        let replies = exchange(repo, io, 9, read(obj, action_id(9, 0), mirror.version(), 0));
        let [Msg::LogReply { delta, .. }] = replies.as_slice() else {
            panic!("expected one reply, got {replies:?}");
        };
        mirror.apply_delta(delta);
    }

    /// A delta write of `entry` by process 9: `view ∖ mirror`, against the
    /// mirror's version.
    fn cut_write(
        obj: ObjId,
        view: &ObjectLog<QInv, QRes>,
        mirror: &VersionedLog<QInv, QRes>,
        entry: LogEntry<QInv, QRes>,
    ) -> Msg<QInv, QRes> {
        Msg::WriteLog {
            obj,
            req: 0,
            log: view.minus(mirror.log()),
            entry: Some(entry),
            cfg: 0,
            base: mirror.version(),
        }
    }

    /// An acked delta promises *base + delta*. Here the base reached the
    /// site as gossip, which a write-ahead site keeps in memory only; the
    /// delta's acknowledgment is what makes it durable.
    #[test]
    fn acked_delta_survives_a_wal_crash_with_the_gossip_received_base_intact() {
        let obj = ObjId(0);
        let mut repo = scoped_repo(&queue_rel(), Durability::Volatile { wal: true });
        let mut io: TestIo = CollectIo::new(0, 1);
        let gossiped = enq(action_id(8, 0), 5);
        let mut view = ObjectLog::new();
        view.insert(gossiped.clone());
        let gossip = Msg::WriteLog {
            obj,
            req: 0,
            log: view.clone(),
            entry: None,
            cfg: 0,
            base: 0,
        };
        exchange(&mut repo, &mut io, 1, gossip);
        let mut mirror = VersionedLog::new();
        sync_mirror(&mut repo, &mut io, obj, &mut mirror);
        assert_eq!(mirror.log().len(), 1, "the reader saw the gossip");
        // The reader writes: its view holds the gossiped entry, its delta
        // does not.
        let fresh = enq(action_id(9, 0), 7);
        let write = cut_write(obj, &view, &mirror, fresh.clone());
        assert!(matches!(&write, Msg::WriteLog { log, .. } if log.is_empty()));
        let replies = exchange(&mut repo, &mut io, 9, write);
        assert!(matches!(
            replies[..],
            [Msg::WriteAck { conflict: None, .. }]
        ));
        repo.on_recover(&mut io);
        let restored = repo.log(obj);
        assert!(restored.get(fresh.ts).is_some(), "the acked entry");
        assert!(restored.get(gossiped.ts).is_some(), "and its base");
        audit(&repo, "after recovery");
    }

    /// A site that lost everything restarts its versions: a mirror of its
    /// previous life names a base it has not reached, and is refused.
    #[test]
    fn amnesiac_site_refuses_base_ahead_of_its_version() {
        let obj = ObjId(0);
        let mut repo = scoped_repo(&queue_rel(), Durability::Volatile { wal: false });
        let mut io: TestIo = CollectIo::new(0, 1);
        let old = enq(action_id(8, 0), 5);
        exchange(&mut repo, &mut io, 8, write(obj, old.clone()));
        let mut mirror = VersionedLog::new();
        sync_mirror(&mut repo, &mut io, obj, &mut mirror);
        repo.on_recover(&mut io);
        io.take_outputs();
        let view = mirror.log().clone();
        let fresh = enq(action_id(9, 0), 7);
        let replies = exchange(
            &mut repo,
            &mut io,
            9,
            cut_write(obj, &view, &mirror, fresh.clone()),
        );
        assert!(refused(&replies), "{replies:?}");
        assert!(repo.log(obj).is_empty(), "a refusal merges nothing");
        assert_eq!(repo.counters().write_delta_refusals, 1);
        // The whole view heals what the delta would have skipped.
        let whole = Msg::WriteLog {
            obj,
            req: 0,
            log: view,
            entry: Some(fresh),
            cfg: 0,
            base: 0,
        };
        assert!(!refused(&exchange(&mut repo, &mut io, 9, whole)));
        assert!(repo.log(obj).get(old.ts).is_some());
    }

    /// A status-GC sweep that drops anything fences the log: a delta cut
    /// before it is refused, the whole view goes through, and a mirror
    /// re-read past the fence cuts deltas that are accepted again.
    #[test]
    fn fenced_log_refuses_then_accepts_the_full_view() {
        let obj = ObjId(0);
        let mut repo = scoped_repo(&queue_rel(), Durability::Stable);
        let mut io: TestIo = CollectIo::new(0, 1);
        // Four aborted actions of client 8, each with an entry here.
        for seq in 0..4 {
            let a = action_id(8, seq);
            exchange(
                &mut repo,
                &mut io,
                8,
                write(obj, enq(a, 5 + u64::from(seq))),
            );
            let abort = Msg::Resolve {
                action: a,
                outcome: ActionOutcome::Aborted,
                entries: Vec::new(),
            };
            exchange(&mut repo, &mut io, 8, abort);
        }
        let mut mirror = VersionedLog::new();
        sync_mirror(&mut repo, &mut io, obj, &mut mirror);
        assert_eq!(mirror.log().len(), 4);
        // Client 8 advertises all four durable: the sweep purges them.
        exchange(&mut repo, &mut io, 8, read(ObjId(1), action_id(8, 4), 0, 4));
        assert!(repo.counters().statuses_gcd > 0, "the sweep ran");
        let view = mirror.log().clone();
        let fresh = enq(action_id(9, 0), 20);
        let replies = exchange(
            &mut repo,
            &mut io,
            9,
            cut_write(obj, &view, &mirror, fresh.clone()),
        );
        assert!(refused(&replies), "{replies:?}");
        let whole = Msg::WriteLog {
            obj,
            req: 0,
            log: view,
            entry: Some(fresh.clone()),
            cfg: 0,
            base: 0,
        };
        assert!(!refused(&exchange(&mut repo, &mut io, 9, whole)));
        let stored = repo.log(obj);
        assert_eq!(stored.len(), 1, "the purged entries stay purged");
        assert!(stored.get(fresh.ts).is_some());
        // Past the fence the reader is served the log whole, and cuts
        // against it are taken again.
        sync_mirror(&mut repo, &mut io, obj, &mut mirror);
        assert_eq!(mirror.log(), &stored);
        let next = enq(action_id(9, 1), 30);
        let view = mirror.log().clone();
        let replies = exchange(&mut repo, &mut io, 9, cut_write(obj, &view, &mirror, next));
        assert!(!refused(&replies), "{replies:?}");
        assert_eq!(repo.counters().write_delta_refusals, 1);
    }

    /// A resolution arriving after a WAL recovery lands in the restored
    /// log and in the mirror: recovery rebuilds the index from what it
    /// restored.
    #[test]
    fn resolve_after_wal_recovery_lands_in_the_restored_logs() {
        let mut repo = scoped_repo(&queue_rel(), Durability::Volatile { wal: true });
        let mut io: TestIo = CollectIo::new(0, 1);
        let action = action_id(7, 0);
        repo.handle(&mut io, 7, write(ObjId(3), enq(action, 5)));
        repo.on_recover(&mut io);
        audit(&repo, "after the first recovery");
        let committed = ActionOutcome::Committed(ts(9, 7));
        repo.handle(
            &mut io,
            7,
            Msg::Resolve {
                action,
                outcome: committed,
                entries: vec![(ObjId(3), 1)],
            },
        );
        assert_eq!(repo.log(ObjId(3)).status(action), committed);
        // And in the mirror: a second crash restores it from there.
        repo.on_recover(&mut io);
        assert_eq!(repo.log(ObjId(3)).status(action), committed);
        audit(&repo, "after the second recovery");
    }

    /// A thousand resolutions of actions that never touched an object
    /// leave its log at its version: a reader at that version is served
    /// an empty delta.
    #[test]
    fn resolve_leaves_untouched_logs_at_their_version() {
        let mut repo = scoped_repo(&queue_rel(), Durability::Stable);
        let mut io: TestIo = CollectIo::new(0, 1);
        repo.handle(&mut io, 7, write(ObjId(0), enq(action_id(7, 0), 1)));
        let version = repo.logs[&ObjId(0)].version();
        for seq in 0..1_000 {
            let foreign = action_id(8, seq);
            repo.handle(
                &mut io,
                8,
                write(ObjId(1), enq(foreign, 10 + u64::from(seq))),
            );
            repo.handle(
                &mut io,
                8,
                Msg::Resolve {
                    action: foreign,
                    outcome: ActionOutcome::Committed(ts(5_000 + u64::from(seq), 8)),
                    entries: vec![(ObjId(1), 1)],
                },
            );
        }
        assert_eq!(repo.logs[&ObjId(0)].version(), version);
        io.take_outputs();
        repo.handle(&mut io, 9, read(ObjId(0), action_id(9, 0), version, 0));
        let replies = io.take_outputs();
        assert!(
            matches!(
                replies.as_slice(),
                [Output::Send {
                    msg: Msg::LogReply { delta, .. },
                    ..
                }] if !delta.full && delta.payload_entries() == 0 && delta.statuses.is_empty()
            ),
            "{replies:?}"
        );
        audit(&repo, "after the foreign resolutions");
    }

    fn resolve(action: ActionId, outcome: ActionOutcome) -> Msg<QInv, QRes> {
        Msg::Resolve {
            action,
            outcome,
            entries: Vec::new(),
        }
    }

    /// Gossip: `view` and nothing else.
    fn gossip(obj: ObjId, view: ObjectLog<QInv, QRes>) -> Msg<QInv, QRes> {
        Msg::WriteLog {
            obj,
            req: 0,
            log: view,
            entry: None,
            cfg: 0,
            base: 0,
        }
    }

    /// A status of an action with neither entry nor recorded status in a
    /// log is refused there, by whichever road it arrives.
    #[test]
    fn scoped_resolve_refuses_untouched_actions() {
        let mut repo = scoped_repo(&queue_rel(), Durability::Stable);
        let mut io: TestIo = CollectIo::new(0, 1);
        let (here, elsewhere) = (action_id(7, 0), action_id(8, 0));
        repo.handle(&mut io, 7, write(ObjId(0), enq(here, 1)));
        repo.handle(&mut io, 8, write(ObjId(1), enq(elsewhere, 2)));
        // An action with an entry here: its status lands.
        let committed = ActionOutcome::Committed(ts(9, 7));
        repo.handle(&mut io, 7, resolve(here, committed));
        assert_eq!(repo.log(ObjId(0)).status(here), committed);
        // One without: irrelevant here and refused, as a `Resolve` and as
        // a status inside a view — and planted where it does have an entry.
        repo.handle(&mut io, 8, resolve(elsewhere, ActionOutcome::Aborted));
        let mut view = ObjectLog::new();
        view.resolve(elsewhere, ActionOutcome::Aborted);
        view.resolve(action_id(9, 0), ActionOutcome::Aborted);
        repo.handle(&mut io, 8, gossip(ObjId(0), view));
        let log = repo.log(ObjId(0));
        assert_eq!(log.status(elsewhere), ActionOutcome::Active);
        assert_eq!(log.status_count(), 1);
        assert_eq!(repo.log(ObjId(1)).status(elsewhere), ActionOutcome::Aborted);
        audit(&repo, "after the refusals");
    }

    /// A commit manifest exists for folds and only a fold drops one: a
    /// repository that never folds — compaction off, as on every socket
    /// run, or static mode — must not keep one per committed transaction.
    #[test]
    fn manifests_are_kept_only_where_a_fold_can_use_them() {
        let obj = ObjId(0);
        let commits = |mut repo: Repository<TestQueue>| {
            let mut io: TestIo = CollectIo::new(0, 1);
            for seq in 0..1_000u32 {
                let action = action_id(7, seq);
                let at = u64::from(seq) * 2 + 1;
                io.set_now(at + 1);
                repo.handle(&mut io, 7, write(obj, enq(action, at)));
                let committed = Msg::Resolve {
                    action,
                    outcome: ActionOutcome::Committed(ts(at + 1, 7)),
                    entries: vec![(obj, 1)],
                };
                repo.handle(&mut io, 7, committed);
            }
            repo
        };
        let folds = CompactionConfig::default();
        let hybrid = || Repository::<TestQueue>::new(Mode::Hybrid, queue_rel());
        let static_ts = Repository::<TestQueue>::new(Mode::StaticTs, queue_rel());
        assert!(commits(hybrid()).manifests.is_empty());
        assert!(commits(static_ts.with_compaction(folds))
            .manifests
            .is_empty());
        // Where folds happen they still find their manifests, and drop them:
        // what is left is the commits younger than the fold lag.
        let folding = commits(hybrid().with_compaction(folds));
        assert!(folding
            .log(obj)
            .checkpoint()
            .is_some_and(|cp| cp.folded() > 800));
        assert_eq!(
            folding.manifests.len(),
            folding.log(obj).len(),
            "one manifest per unfolded commit"
        );
    }

    /// Under aborted-entry GC an aborted action whose entry was dropped
    /// stays in scope through its tombstone: a re-delivered entry is
    /// refused and the tombstone keeps shipping.
    #[test]
    fn scoped_tombstone_still_lands_after_aborted_entry_gc() {
        let obj = ObjId(0);
        let mut repo = scoped_repo(&queue_rel(), Durability::Stable)
            .with_compaction(CompactionConfig::default());
        let mut io: TestIo = CollectIo::new(0, 1);
        let action = action_id(7, 0);
        repo.handle(&mut io, 7, write(obj, enq(action, 1)));
        repo.handle(&mut io, 7, resolve(action, ActionOutcome::Aborted));
        assert_eq!(repo.log(obj).len(), 0, "aborted entry dropped");
        assert_eq!(
            repo.touched_by(action),
            vec![obj],
            "the tombstone holds the row"
        );
        audit(&repo, "after the abort");
        // Re-delivered alone, and inside a view that does not know better.
        repo.handle(&mut io, 7, write(obj, enq(action, 1)));
        let mut view = ObjectLog::new();
        view.insert(enq(action, 1));
        repo.handle(&mut io, 7, gossip(obj, view));
        let log = repo.log(obj);
        assert_eq!(log.len(), 0, "the tombstone refuses the entry");
        assert_eq!(log.status(action), ActionOutcome::Aborted);
        audit(&repo, "after the re-delivery");
        io.take_outputs();
        let replies = exchange(&mut repo, &mut io, 9, read(obj, action_id(9, 0), 0, 0));
        assert!(
            matches!(
                replies.as_slice(),
                [Msg::LogReply { delta, .. }]
                    if delta.entries.is_empty()
                        && delta.statuses == [(action, ActionOutcome::Aborted)]
            ),
            "{replies:?}"
        );
    }

    /// Entries before statuses: a view carrying an action's first entry
    /// here *and* its resolution leaves the resolution recorded.
    #[test]
    fn a_status_arriving_with_its_actions_first_entry_is_planted() {
        let mut repo = scoped_repo(&queue_rel(), Durability::Stable);
        let mut io: TestIo = CollectIo::new(0, 1);
        let action = action_id(7, 0);
        let committed = ActionOutcome::Committed(ts(9, 7));
        let mut view = ObjectLog::new();
        view.insert(enq(action, 1));
        view.resolve(action, committed);
        repo.handle(&mut io, 8, gossip(ObjId(0), view));
        assert_eq!(repo.log(ObjId(0)).status_entry(action), Some(committed));
        audit(&repo, "after the view");
    }

    /// Two different resolutions of one action: the first stands wherever
    /// it is recorded, nothing panics in any build, and each refusal is
    /// counted — scoped or not, as a `Resolve` or as a status in a view.
    #[test]
    fn conflicting_resolutions_are_refused_and_counted() {
        for scoped in [true, false] {
            let mut repo =
                Repository::<TestQueue>::new(Mode::Hybrid, queue_rel()).with_gossip(scoped, None);
            let mut io: TestIo = CollectIo::new(0, 1);
            let action = action_id(7, 0);
            let committed = ActionOutcome::Committed(ts(9, 7));
            repo.handle(&mut io, 7, write(ObjId(0), enq(action, 1)));
            repo.handle(&mut io, 7, write(ObjId(1), enq(action, 2)));
            repo.handle(&mut io, 7, resolve(action, committed));
            assert_eq!(repo.counters().conflicting_resolutions, 0);
            repo.handle(&mut io, 7, resolve(action, ActionOutcome::Aborted));
            assert_eq!(
                repo.counters().conflicting_resolutions,
                1,
                "one per message"
            );
            // The same resolution again is a duplicate, not a conflict.
            repo.handle(&mut io, 7, resolve(action, committed));
            assert_eq!(repo.counters().conflicting_resolutions, 1);
            let mut view = ObjectLog::new();
            view.resolve(action, ActionOutcome::Committed(ts(10, 7)));
            repo.handle(&mut io, 8, gossip(ObjId(1), view));
            assert_eq!(repo.counters().conflicting_resolutions, 2);
            for obj in [ObjId(0), ObjId(1)] {
                assert_eq!(repo.log(obj).status_entry(action), Some(committed));
            }
            if scoped {
                assert_eq!(repo.resolutions.get(&action), Some(&committed));
                audit(&repo, "after the conflicts");
            }
        }
    }
}
