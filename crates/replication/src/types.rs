//! Log entries and merge rules — the replicated object's state
//! representation (§3.2: "a replicated object's state is represented as a
//! log … partially replicated among the repositories").
//!
//! Beyond the paper's plain logs, this module carries the two mechanisms
//! that keep replica communication bounded:
//!
//! * **Checkpoints** ([`Checkpoint`]): a folded committed prefix. Once a
//!   repository knows the outcome and the complete entry set of every
//!   action below a horizon, it replays those entries into a per-op-class
//!   state summary and drops them from the log. The summary is exact: each
//!   op class gets the state produced by replaying *its own dependency
//!   closure* of the folded events in commit order, so a front-end
//!   evaluating from a checkpoint computes bit-identical responses to one
//!   replaying the raw prefix.
//! * **Versioned logs** ([`VersionedLog`]): a log plus a monotonic change
//!   journal, from which a repository serves [`LogDelta`]s — only the
//!   suffix a front-end has not seen yet — instead of cloning the whole
//!   log into every reply.

use quorumcc_model::{ActionId, Event, Sequential};
use quorumcc_sim::{ProcId, Timestamp};
use std::any::Any;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

/// Identifier of a replicated object within a cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjId(pub u16);

impl std::fmt::Display for ObjId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "obj{}", self.0)
    }
}

/// Action ids each front-end owns: client `c` issues `ActionId(c *
/// ACTION_SPAN + seq)` with `seq` counting its actions (every transaction
/// attempt takes a fresh one) from 0. Status GC frontiers read the client
/// and sequence back out of an id, so a client may never issue more than
/// this many actions —
/// [`RunBuilder::assemble`](crate::cluster::RunBuilder::assemble) refuses
/// workloads that could.
pub const ACTION_SPAN: u32 = 100_000;

/// The id of `client`'s `seq`-th action.
pub fn action_id(client: ProcId, seq: u32) -> ActionId {
    ActionId(client * ACTION_SPAN + seq)
}

/// Splits an action id into its issuing client and per-client sequence
/// number (the inverse of [`action_id`]).
pub fn action_parts(action: ActionId) -> (ProcId, u32) {
    (action.0 / ACTION_SPAN, action.0 % ACTION_SPAN)
}

/// Identifier of a shard: a static partition block of the object space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ShardId(pub u16);

impl std::fmt::Display for ShardId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "shard{}", self.0)
    }
}

/// The static object→shard partition: object `o` lives in shard
/// `o mod n`. Every object belongs to exactly one shard, so conflict
/// detection (which is per-object) never crosses a shard boundary — the
/// quorum-intersection requirement `ti + tf > n` only has to hold *within*
/// a shard, which is what lets each shard carry its own quorum map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardMap {
    n: u16,
}

impl ShardMap {
    /// A partition into `n` shards (`n = 0` is treated as 1).
    pub fn new(n: u16) -> Self {
        ShardMap { n: n.max(1) }
    }

    /// Number of shards.
    pub fn count(&self) -> u16 {
        self.n
    }

    /// The shard an object belongs to.
    pub fn of(&self, obj: ObjId) -> ShardId {
        ShardId(obj.0 % self.n)
    }
}

impl Default for ShardMap {
    fn default() -> Self {
        ShardMap::new(1)
    }
}

/// The resolution of an action, as known by a repository.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActionOutcome {
    /// Still running; its entries are tentative (they act as locks).
    Active,
    /// Committed with the given commit timestamp (hybrid serialization
    /// position).
    Committed(Timestamp),
    /// Aborted; its entries are garbage.
    Aborted,
}

impl ActionOutcome {
    /// Merge precedence: resolutions beat `Active`, and of two resolutions
    /// the first recorded stands. Only a faulty peer, or a frame replayed
    /// across an amnesiac restart, sends a second, different one; the
    /// repository counts it (`RepoCounters::conflicting_resolutions`).
    pub fn merge(self, other: ActionOutcome) -> ActionOutcome {
        match (self, other) {
            (ActionOutcome::Active, o) => o,
            (s, _) => s,
        }
    }

    /// Whether this and `other` are two different resolutions.
    pub(crate) fn contradicts(self, other: ActionOutcome) -> bool {
        self.is_resolved() && other.is_resolved() && self != other
    }

    /// Whether this outcome is a final resolution.
    pub fn is_resolved(self) -> bool {
        !matches!(self, ActionOutcome::Active)
    }
}

/// One timestamped event record (§3.2: "a sequence of entries, each
/// consisting of a timestamp, an event, and an action identifier").
///
/// `begin_ts` carries the action's Begin timestamp so the static protocol
/// can serialize by Begin order without extra lookups.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogEntry<I, R> {
    /// Unique entry timestamp (Lamport: simulated time + issuing process).
    pub ts: Timestamp,
    /// The executing action.
    pub action: ActionId,
    /// The action's Begin timestamp.
    pub begin_ts: Timestamp,
    /// The recorded event.
    pub event: Event<I, R>,
}

/// Tuning knobs for committed-prefix compaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionConfig {
    /// Commits younger than `lag` ticks are never folded. The lag must
    /// comfortably exceed the network's delivery window: it is what keeps
    /// in-flight entries and resolutions from arriving below an already
    /// folded horizon.
    pub lag: u64,
    /// Skip folding while the raw log is shorter than this.
    pub min_entries: usize,
}

impl Default for CompactionConfig {
    fn default() -> Self {
        CompactionConfig {
            lag: 160,
            min_entries: 16,
        }
    }
}

/// A folded committed prefix: the serial-state summary plus the horizon
/// below which the raw entries were dropped.
///
/// The state is a type-erased `BTreeMap<&'static str, S::State>` mapping
/// each operation class to the state obtained by replaying, in commit
/// order, exactly the folded events in that class's dependency closure.
/// Keeping one state per op class (rather than one state total) is what
/// makes checkpointed evaluation *bit-exact*: the protocol replays a
/// closure-filtered sub-history, so the fold must filter the same way.
#[derive(Clone)]
pub struct Checkpoint {
    state: Arc<dyn Any + Send + Sync>,
    covered: BTreeMap<ActionId, Timestamp>,
    horizon: Timestamp,
    folded: u64,
}

impl Checkpoint {
    /// Builds a checkpoint over a nonempty covered set. `state` is the
    /// per-op-class state map; `folded` counts every raw entry folded into
    /// it (across the checkpoint's whole lineage).
    pub fn new<T: Any + Send + Sync>(
        state: T,
        covered: BTreeMap<ActionId, Timestamp>,
        folded: u64,
    ) -> Self {
        let horizon = covered
            .values()
            .copied()
            .max()
            .expect("checkpoint over an empty covered set");
        Checkpoint {
            state: Arc::new(state),
            covered,
            horizon,
            folded,
        }
    }

    /// The typed state summary, if `T` matches the folding spec.
    pub fn state_as<T: Any>(&self) -> Option<&T> {
        self.state.downcast_ref::<T>()
    }

    /// Commit timestamp of `action` if the checkpoint covers it.
    pub fn covers(&self, action: ActionId) -> Option<Timestamp> {
        self.covered.get(&action).copied()
    }

    /// The covered actions and their commit timestamps.
    pub fn covered(&self) -> &BTreeMap<ActionId, Timestamp> {
        &self.covered
    }

    /// The largest covered commit timestamp: every raw committed entry in
    /// a well-formed log serializes strictly after it.
    pub fn horizon(&self) -> Timestamp {
        self.horizon
    }

    /// Raw entries folded into this checkpoint's lineage.
    pub fn folded(&self) -> u64 {
        self.folded
    }

    /// Whether a log whose checkpoint is `own` adopts this one: it
    /// strictly extends it — ranks higher (more history wins) and covers
    /// everything `own` does.
    pub(crate) fn extends(&self, own: Option<&Checkpoint>) -> bool {
        let rank = |cp: &Checkpoint| (cp.horizon, cp.covered.len());
        own.is_none_or(|own| {
            rank(self) > rank(own) && own.covered.keys().all(|a| self.covered.contains_key(a))
        })
    }
}

impl std::fmt::Debug for Checkpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Checkpoint")
            .field("covered", &self.covered.len())
            .field("horizon", &self.horizon)
            .field("folded", &self.folded)
            .finish()
    }
}

impl PartialEq for Checkpoint {
    fn eq(&self, other: &Self) -> bool {
        // The state map is a deterministic function of the covered set
        // (same events, same commit order, same closures), so identity of
        // the covered set implies identity of the states.
        self.horizon == other.horizon
            && self.folded == other.folded
            && self.covered == other.covered
    }
}

impl Eq for Checkpoint {}

/// What a merge changed — the hook a [`VersionedLog`] uses to journal
/// mutations without the wire format carrying journals around.
#[derive(Debug, Clone, Default)]
pub struct MergeEffect {
    /// Timestamps of entries newly inserted.
    pub entries: Vec<Timestamp>,
    /// Actions whose recorded status changed.
    pub statuses: Vec<ActionId>,
    /// Whether a (larger) checkpoint was adopted.
    pub checkpoint: bool,
}

impl MergeEffect {
    /// Whether the merge changed anything.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty() && self.statuses.is_empty() && !self.checkpoint
    }
}

/// A per-object log plus the action resolutions it has heard of.
///
/// Merging is a CRDT-style join: entries union by unique timestamp,
/// statuses upgrade `Active → Committed/Aborted`, and checkpoints adopt
/// the larger of two nested covered sets. Front-ends write back whole
/// merged views, so information (including commit resolutions and
/// checkpoints) propagates transitively through quorum intersections —
/// this is what makes indirect dependencies (e.g. a PROM `Read` learning
/// of `Write`s through the `Seal` entry) work.
#[derive(Debug, Clone)]
pub struct ObjectLog<I, R> {
    entries: BTreeMap<Timestamp, LogEntry<I, R>>,
    statuses: BTreeMap<ActionId, ActionOutcome>,
    checkpoint: Option<Checkpoint>,
    gc_aborted: bool,
}

impl<I: Clone, R: Clone> Default for ObjectLog<I, R> {
    fn default() -> Self {
        ObjectLog::new()
    }
}

impl<I: PartialEq, R: PartialEq> PartialEq for ObjectLog<I, R> {
    fn eq(&self, other: &Self) -> bool {
        // `gc_aborted` is a local storage policy, not log content.
        self.entries == other.entries
            && self.statuses == other.statuses
            && self.checkpoint == other.checkpoint
    }
}

impl<I: Eq, R: Eq> Eq for ObjectLog<I, R> {}

impl<I: Clone, R: Clone> ObjectLog<I, R> {
    /// An empty log.
    pub fn new() -> Self {
        ObjectLog {
            entries: BTreeMap::new(),
            statuses: BTreeMap::new(),
            checkpoint: None,
            gc_aborted: false,
        }
    }

    /// Number of raw entries (folded entries are not counted).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the log has no raw entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Enables dropping the entries of aborted actions (their status
    /// tombstone is kept, so merges cannot resurrect them). Aborted
    /// entries are invisible to every protocol mode, so this is a pure
    /// storage optimization.
    pub fn set_gc_aborted(&mut self, on: bool) {
        self.gc_aborted = on;
    }

    /// Whether aborted-entry garbage collection is enabled.
    pub fn gc_aborted(&self) -> bool {
        self.gc_aborted
    }

    /// Recorded statuses (the per-log gossip weight the repository's
    /// planting rule and status GC bound).
    pub fn status_count(&self) -> usize {
        self.statuses.len()
    }

    /// The folded committed prefix, if any.
    pub fn checkpoint(&self) -> Option<&Checkpoint> {
        self.checkpoint.as_ref()
    }

    /// Adds one entry (idempotent — timestamps are unique). Entries of
    /// checkpoint-covered actions are skipped (their effect already lives
    /// in the summary; re-inserting would double-apply), as are entries of
    /// aborted actions under [`Self::set_gc_aborted`]. Returns whether the
    /// entry was newly stored.
    pub fn insert(&mut self, entry: LogEntry<I, R>) -> bool {
        if let Some(cp) = &self.checkpoint {
            if cp.covers(entry.action).is_some() {
                return false;
            }
        }
        if self.gc_aborted && self.status(entry.action) == ActionOutcome::Aborted {
            return false;
        }
        match self.entries.entry(entry.ts) {
            std::collections::btree_map::Entry::Vacant(v) => {
                v.insert(entry);
                true
            }
            std::collections::btree_map::Entry::Occupied(_) => false,
        }
    }

    /// Records an action resolution (upgrades, never downgrades). Returns
    /// whether the recorded status changed.
    pub fn resolve(&mut self, action: ActionId, outcome: ActionOutcome) -> bool {
        self.upgrade(action, outcome).is_some()
    }

    /// [`Self::resolve`], reporting a change as the recorded status before
    /// it and after.
    pub(crate) fn upgrade(
        &mut self,
        action: ActionId,
        outcome: ActionOutcome,
    ) -> Option<(Option<ActionOutcome>, ActionOutcome)> {
        if self
            .checkpoint
            .as_ref()
            .is_some_and(|cp| cp.covers(action).is_some())
        {
            return None; // implied Committed by the checkpoint
        }
        let cur = self.statuses.get(&action).copied();
        let next = cur.unwrap_or(ActionOutcome::Active).merge(outcome);
        if cur == Some(next) {
            return None;
        }
        self.statuses.insert(action, next);
        if self.gc_aborted && next == ActionOutcome::Aborted {
            self.entries.retain(|_, e| e.action != action);
        }
        Some((cur, next))
    }

    /// The outcome of `action` as known here (checkpoint-covered actions
    /// are committed by construction).
    pub fn status(&self, action: ActionId) -> ActionOutcome {
        if let Some(o) = self.statuses.get(&action) {
            return *o;
        }
        if let Some(cts) = self.checkpoint.as_ref().and_then(|cp| cp.covers(action)) {
            return ActionOutcome::Committed(cts);
        }
        ActionOutcome::Active
    }

    /// The recorded status, without the checkpoint fallback.
    pub fn status_entry(&self, action: ActionId) -> Option<ActionOutcome> {
        self.statuses.get(&action).copied()
    }

    /// Adopts `cp` if it strictly extends the current checkpoint (covers
    /// everything ours does, plus more). Covered raw entries and statuses
    /// are dropped — their information now lives in the summary. Divergent
    /// checkpoints (neither a superset) are refused: adopting one would
    /// orphan entries only the other summarizes.
    pub fn adopt_checkpoint(&mut self, cp: &Checkpoint) -> bool {
        if !cp.extends(self.checkpoint.as_ref()) {
            return false;
        }
        self.install_checkpoint(cp.clone());
        true
    }

    /// Unconditionally installs `cp`, dropping covered entries/statuses.
    /// Callers (the repository fold, [`Self::adopt_checkpoint`]) guarantee
    /// `cp` extends any current checkpoint.
    pub fn install_checkpoint(&mut self, cp: Checkpoint) {
        self.entries.retain(|_, e| cp.covers(e.action).is_none());
        self.statuses.retain(|a, _| cp.covers(*a).is_none());
        self.checkpoint = Some(cp);
    }

    /// Drops every trace of `action` (entries and status).
    /// Used by the repository's write-intake sanitizer to refuse
    /// resurrection of content below a durable resolution frontier.
    pub fn remove_action(&mut self, action: ActionId) {
        self.entries.retain(|_, e| e.action != action);
        self.statuses.remove(&action);
    }

    /// Status garbage collection over `stale`, a sorted list of actions
    /// every current member is known to have resolved (candidates without
    /// a status here are skipped). Aborted actions lose their tombstone
    /// *and* their entries (aborted entries are invisible to every protocol
    /// mode); committed actions lose their status only when no entry of
    /// theirs remains here (readers still need it, and checkpoint folding
    /// prunes it instead). Costs a status lookup per candidate and at most
    /// one pass over the entries. Returns the actions whose status dropped.
    pub fn gc_below(&mut self, stale: &[ActionId]) -> Vec<ActionId> {
        // Each held candidate, and whether an entry of it is still here.
        let mut held: Vec<(ActionId, ActionOutcome, bool)> = (stale.iter())
            .filter_map(|a| Some((*a, *self.statuses.get(a)?, false)))
            .collect();
        if !held.is_empty() {
            for e in self.entries.values() {
                if let Ok(i) = held.binary_search_by_key(&e.action, |h| h.0) {
                    held[i].2 = true;
                }
            }
        }
        let doomed: Vec<(ActionId, ActionOutcome)> = (held.into_iter())
            .filter(|(_, o, bears)| o.is_resolved() && (!bears || *o == ActionOutcome::Aborted))
            .map(|(a, o, _)| (a, o))
            .collect();
        let mut aborted = BTreeSet::new();
        for (a, o) in &doomed {
            self.statuses.remove(a);
            if *o == ActionOutcome::Aborted {
                aborted.insert(*a);
            }
        }
        if !aborted.is_empty() {
            self.entries.retain(|_, e| !aborted.contains(&e.action));
        }
        doomed.into_iter().map(|(a, _)| a).collect()
    }

    /// Merges another log into this one (entry union + status upgrade +
    /// checkpoint adoption), reporting what changed.
    pub fn merge(&mut self, other: &ObjectLog<I, R>) -> MergeEffect {
        if self.is_blank() && !self.gc_aborted && other.checkpoint.is_none() {
            // Nothing here to refuse, drop or upgrade anything of
            // `other`'s: the join is a copy (a log's first merge).
            self.entries = other.entries.clone();
            self.statuses = other.statuses.clone();
            return MergeEffect {
                entries: other.entries.keys().copied().collect(),
                statuses: other.statuses.keys().copied().collect(),
                checkpoint: false,
            };
        }
        let mut effect = self.merge_entries(other);
        effect.statuses = self.merge_statuses(other, |_, _, _| true);
        effect
    }

    /// The first two loops of a merge: adopts `other`'s checkpoint, then
    /// stores its entries. A repository that plants statuses by scope runs
    /// [`Self::merge_statuses`] itself, once it knows what this stored.
    pub(crate) fn merge_entries(&mut self, other: &ObjectLog<I, R>) -> MergeEffect {
        let mut effect = MergeEffect::default();
        if let Some(cp) = &other.checkpoint {
            effect.checkpoint = self.adopt_checkpoint(cp);
        }
        // What is already held identically would be refused one tree
        // operation at a time; skip it (a stored entry is not covered and
        // not an aborted action's under GC; a recorded status is not
        // covered), and hand the rest to the usual checks.
        for (_, e) in not_held(&self.entries, &other.entries, |_, _| true) {
            if self.insert(e.clone()) {
                effect.entries.push(e.ts);
            }
        }
        effect
    }

    /// The third loop: offers this log each status of `other` it does not
    /// record identically and `admit(action, recorded here, offered)`
    /// lets through. Returns the actions whose recorded status changed.
    pub(crate) fn merge_statuses(
        &mut self,
        other: &ObjectLog<I, R>,
        mut admit: impl FnMut(ActionId, Option<ActionOutcome>, ActionOutcome) -> bool,
    ) -> Vec<ActionId> {
        let mut changed = Vec::new();
        for (a, o) in not_held(&self.statuses, &other.statuses, |mine, theirs| {
            mine == theirs
        }) {
            if admit(*a, self.status_entry(*a), *o) && self.resolve(*a, *o) {
                changed.push(*a);
            }
        }
        changed
    }

    /// Whether nothing is stored here.
    fn is_blank(&self) -> bool {
        self.entries.is_empty() && self.statuses.is_empty() && self.checkpoint.is_none()
    }

    /// What this log holds that `held` does not — the entries `held` has
    /// neither stored nor folded, the statuses it records differently or
    /// not at all, and the checkpoint if it differs — as a log of its
    /// own. Merging the result into any log that contains `held` leaves
    /// what merging `self` would. An entry never travels without the
    /// status this log knows for its action, so the receiver judges the
    /// entry exactly as it would have inside the whole log.
    pub fn minus(&self, held: &ObjectLog<I, R>) -> ObjectLog<I, R> {
        let folded = |a: ActionId| folds(held.checkpoint.as_ref(), a);
        let mut out = ObjectLog::new();
        out.gc_aborted = self.gc_aborted;
        if self.checkpoint != held.checkpoint {
            out.checkpoint = self.checkpoint.clone();
        }
        out.entries = not_held(&held.entries, &self.entries, |_, _| true)
            .into_iter()
            .filter(|(_, e)| !folded(e.action))
            .map(|(ts, e)| (*ts, e.clone()))
            .collect();
        out.statuses = not_held(&held.statuses, &self.statuses, |theirs, mine| {
            theirs == mine
        })
        .into_iter()
        .filter(|(a, _)| !folded(**a))
        .map(|(a, o)| (*a, *o))
        .collect();
        self.carry_statuses(out)
    }

    /// `out`, each entry's action carrying the status this log knows for
    /// it (the rule of [`Self::minus`], for a view's cuts in `view.rs`).
    pub(crate) fn carry_statuses(&self, mut out: ObjectLog<I, R>) -> ObjectLog<I, R> {
        for e in out.entries.values() {
            if let Some(o) = self.statuses.get(&e.action) {
                out.statuses.insert(e.action, *o);
            }
        }
        out
    }

    /// Stores `entry` at `ts`, or nothing, by no rule: a view or mirror
    /// set key by key to what another log holds there (`view.rs`).
    pub(crate) fn set_entry(&mut self, ts: Timestamp, entry: Option<LogEntry<I, R>>) {
        match entry {
            Some(e) => self.entries.insert(ts, e),
            None => self.entries.remove(&ts),
        };
    }

    /// Records `outcome` for `action`, or nothing, as [`Self::set_entry`].
    pub(crate) fn set_status(&mut self, action: ActionId, outcome: Option<ActionOutcome>) {
        match outcome {
            Some(o) => self.statuses.insert(action, o),
            None => self.statuses.remove(&action),
        };
    }

    /// Sets the checkpoint, dropping nothing, as [`Self::set_entry`].
    pub(crate) fn set_checkpoint(&mut self, cp: Option<Checkpoint>) {
        self.checkpoint = cp;
    }

    /// Entries in timestamp order.
    pub fn entries(&self) -> impl Iterator<Item = &LogEntry<I, R>> {
        self.entries.values()
    }

    /// The entry at `ts`, if present.
    pub fn get(&self, ts: Timestamp) -> Option<&LogEntry<I, R>> {
        self.entries.get(&ts)
    }

    /// Known statuses.
    pub fn statuses(&self) -> impl Iterator<Item = (ActionId, ActionOutcome)> + '_ {
        self.statuses.iter().map(|(a, o)| (*a, *o))
    }
}

/// Whether `checkpoint` (if any) covers `action`.
pub(crate) fn folds(checkpoint: Option<&Checkpoint>, action: ActionId) -> bool {
    checkpoint.is_some_and(|cp| cp.covers(action).is_some())
}

/// Below this many of `ours` per one of `theirs`, [`not_held`] walks both
/// maps instead of looking each key up: a step of the walk costs about a
/// tenth of a lookup in a map of a few hundred entries.
const WALK_RATIO: usize = 8;

/// The pairs of `theirs` that `ours` does not hold with a `same` value, in
/// key order. A view written back to a site that already stores nearly all
/// of it is the common merge, so the two maps are walked in step — no tree
/// descent per duplicate — unless `theirs` is a sliver of `ours`, where a
/// lookup per key is the shorter way.
fn not_held<'a, K: Ord, V>(
    ours: &BTreeMap<K, V>,
    theirs: &'a BTreeMap<K, V>,
    same: impl Fn(&V, &V) -> bool,
) -> Vec<(&'a K, &'a V)> {
    if theirs.len() * WALK_RATIO < ours.len() {
        return theirs
            .iter()
            .filter(|(k, v)| !ours.get(*k).is_some_and(|o| same(o, v)))
            .collect();
    }
    let mut mine = ours.iter().peekable();
    theirs
        .iter()
        .filter(|(k, v)| {
            while mine.next_if(|(m, _)| m < k).is_some() {}
            !mine.peek().is_some_and(|(m, o)| m == k && same(o, v))
        })
        .collect()
}

/// One incremental reply payload: the changes between two versions of a
/// repository's log, or a full (checkpoint-rooted) transfer when the
/// requested frontier fell off the journal.
#[derive(Debug, Clone)]
pub struct LogDelta<I, R> {
    /// The frontier this delta starts from (the `since` the reader sent).
    pub base: u64,
    /// The repository's log version after these changes.
    pub head: u64,
    /// Whether this is a full transfer (replace, don't append).
    pub full: bool,
    /// New (or all, when `full`) raw entries.
    pub entries: Vec<LogEntry<I, R>>,
    /// Changed (or all) recorded statuses.
    pub statuses: Vec<(ActionId, ActionOutcome)>,
    /// The current checkpoint, included when it changed since `base` (or
    /// on a full transfer).
    pub checkpoint: Option<Checkpoint>,
}

impl<I: Clone, R: Clone> LogDelta<I, R> {
    /// Entry-equivalents shipped: raw entries plus one for a checkpoint.
    pub fn payload_entries(&self) -> u64 {
        self.entries.len() as u64 + u64::from(self.checkpoint.is_some())
    }

    /// Materializes the delta as a standalone log (meaningful for full
    /// transfers and for full-shipping ablations where `base == 0`): what
    /// installing the checkpoint, then inserting and resolving one by one
    /// into a fresh log leaves, built in one pass.
    pub fn to_log(&self) -> ObjectLog<I, R> {
        let folded = |a: ActionId| folds(self.checkpoint.as_ref(), a);
        let mut log = ObjectLog::new();
        log.entries = (self.entries.iter())
            .filter(|e| !folded(e.action))
            .map(|e| (e.ts, e.clone()))
            .collect();
        log.statuses = (self.statuses.iter().copied())
            .filter(|(a, _)| !folded(*a))
            .collect();
        log.checkpoint = self.checkpoint.clone();
        log
    }
}

/// One journaled change to a [`VersionedLog`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalItem {
    /// An entry was inserted at this timestamp.
    Entry(Timestamp),
    /// The recorded status of this action changed.
    Status(ActionId),
    /// The checkpoint advanced (fold or adoption).
    Checkpoint,
}

/// Bounded journal length; frontiers older than this fall back to a full
/// transfer.
const JOURNAL_CAP: usize = 1024;

/// An [`ObjectLog`] with a monotonic version counter and a bounded change
/// journal — the repository-side (and mirror-side) machinery behind delta
/// shipping.
///
/// Every mutation that changes the log bumps the version and journals what
/// changed; [`Self::delta_since`] turns a journal suffix into a
/// [`LogDelta`]. A reader holding version `v` that applies the delta for
/// `v` ends bit-identical to this log — [`Self::apply_delta`] is the
/// reader half, a monotone join that tolerates duplicated and reordered
/// replies.
#[derive(Debug, Clone)]
pub struct VersionedLog<I, R> {
    log: ObjectLog<I, R>,
    version: u64,
    journal: VecDeque<(u64, JournalItem)>,
}

impl<I: Clone, R: Clone> Default for VersionedLog<I, R> {
    fn default() -> Self {
        VersionedLog::new()
    }
}

impl<I: Clone, R: Clone> VersionedLog<I, R> {
    /// An empty versioned log.
    pub fn new() -> Self {
        VersionedLog {
            log: ObjectLog::new(),
            version: 0,
            journal: VecDeque::new(),
        }
    }

    /// An empty versioned log with aborted-entry GC switched on.
    pub fn with_gc(gc: bool) -> Self {
        let mut v = VersionedLog::new();
        v.log.set_gc_aborted(gc);
        v
    }

    /// Status GC over the underlying log (see [`ObjectLog::gc_below`]).
    /// A purge is *subtractive*, which deltas cannot express, so any drop
    /// fences every reader into a full transfer: the version advances and
    /// the journal clears, making every outstanding frontier
    /// non-contiguous. That full transfer is what flushes a reader's
    /// stale pre-GC entries (an aborted action's entry with no tombstone
    /// would otherwise linger in a mirror as a phantom lock).
    pub fn gc_below(&mut self, stale: &[ActionId]) -> Vec<ActionId> {
        let dropped = self.log.gc_below(stale);
        if !dropped.is_empty() {
            self.version += 1;
            self.journal.clear();
        }
        dropped
    }

    /// A log at `version` that journals nothing yet: a mirror rebuilt
    /// from a front-end's view (`view.rs`).
    pub(crate) fn at(log: ObjectLog<I, R>, version: u64) -> Self {
        VersionedLog {
            log,
            version,
            journal: VecDeque::new(),
        }
    }

    /// The underlying log.
    pub fn log(&self) -> &ObjectLog<I, R> {
        &self.log
    }

    /// The underlying log, this log's version and journal dropped.
    pub(crate) fn into_log(self) -> ObjectLog<I, R> {
        self.log
    }

    /// The current version (= number of changes ever applied).
    pub fn version(&self) -> u64 {
        self.version
    }

    fn push(&mut self, item: JournalItem) {
        self.version += 1;
        self.journal.push_back((self.version, item));
        if self.journal.len() > JOURNAL_CAP {
            self.journal.pop_front();
        }
    }

    /// Inserts one entry, journaling on change.
    pub fn insert(&mut self, entry: LogEntry<I, R>) -> bool {
        let ts = entry.ts;
        let added = self.log.insert(entry);
        if added {
            self.push(JournalItem::Entry(ts));
        }
        added
    }

    /// Records a resolution, journaling on change.
    pub fn resolve(&mut self, action: ActionId, outcome: ActionOutcome) -> bool {
        let changed = self.log.resolve(action, outcome);
        if changed {
            self.push(JournalItem::Status(action));
        }
        changed
    }

    /// Merges a foreign log, journaling every change.
    pub fn merge(&mut self, other: &ObjectLog<I, R>) -> MergeEffect {
        self.merge_with(|log| log.merge(other))
    }

    /// Runs a merge `f` performs on the underlying log, journaling every
    /// change it reports.
    pub(crate) fn merge_with(
        &mut self,
        f: impl FnOnce(&mut ObjectLog<I, R>) -> MergeEffect,
    ) -> MergeEffect {
        let effect = f(&mut self.log);
        if effect.checkpoint {
            self.push(JournalItem::Checkpoint);
        }
        for ts in &effect.entries {
            self.push(JournalItem::Entry(*ts));
        }
        for a in &effect.statuses {
            self.push(JournalItem::Status(*a));
        }
        effect
    }

    /// Installs a locally computed (fold) checkpoint, journaling it.
    pub fn install_checkpoint(&mut self, cp: Checkpoint) {
        self.log.install_checkpoint(cp);
        self.push(JournalItem::Checkpoint);
    }

    /// Forces the version counter up to at least `v`, clearing the journal
    /// when it moves (the skipped range has no journaled changes to serve).
    ///
    /// This is the crash-recovery frontier repair: a volatile repository
    /// that restored an older write-ahead mirror must not re-issue version
    /// numbers it already handed out — a reader holding a higher frontier
    /// would be served an empty delta and silently miss everything after
    /// its mirror's state. Advancing past the pre-crash high-water makes
    /// every stale frontier non-contiguous, so [`Self::delta_since`] falls
    /// back to a full transfer instead.
    pub fn advance_version(&mut self, v: u64) {
        if v > self.version {
            self.version = v;
            self.journal.clear();
        }
    }

    /// Whether the journal still holds every change made after version
    /// `since` (status GC and [`Self::advance_version`] clear it, and it
    /// keeps [`JOURNAL_CAP`] items).
    fn journal_reaches(&self, since: u64) -> bool {
        self.journal
            .front()
            .is_some_and(|(v, _)| *v <= since.saturating_add(1))
    }

    /// Whether this log still contains the copy a reader took of it at
    /// version `base`: `base` is a version this log has reached, and every
    /// change since is an addition the journal can name — no status-GC
    /// fence, no recovery jump, no overflow. This is the condition under
    /// which `view ∖ copy` merges to what `view` would
    /// ([`ObjectLog::minus`]), and the complement of the one under which
    /// [`Self::delta_since`] falls back to a full transfer.
    pub fn extends(&self, base: u64) -> bool {
        base == self.version || (base < self.version && self.journal_reaches(base))
    }

    /// The changes a reader at version `since` is missing. Falls back to a
    /// full (checkpoint-rooted) transfer when `since` predates the journal.
    pub fn delta_since(&self, since: u64) -> LogDelta<I, R> {
        if since >= self.version {
            return LogDelta {
                base: self.version,
                head: self.version,
                full: false,
                entries: Vec::new(),
                statuses: Vec::new(),
                checkpoint: None,
            };
        }
        if !self.journal_reaches(since) {
            return LogDelta {
                base: 0,
                head: self.version,
                full: true,
                entries: self.log.entries().cloned().collect(),
                statuses: self.log.statuses().collect(),
                checkpoint: self.log.checkpoint().cloned(),
            };
        }
        let mut entry_ts: BTreeSet<Timestamp> = BTreeSet::new();
        let mut actions: BTreeSet<ActionId> = BTreeSet::new();
        let mut saw_checkpoint = false;
        // Versions ascend along the journal: the suffix is its tail.
        for (_, item) in self.journal.iter().rev().take_while(|(v, _)| *v > since) {
            match item {
                JournalItem::Entry(ts) => {
                    entry_ts.insert(*ts);
                }
                JournalItem::Status(a) => {
                    actions.insert(*a);
                }
                JournalItem::Checkpoint => saw_checkpoint = true,
            }
        }
        // Entries folded (and statuses pruned) after being journaled are
        // absent from the log now; the checkpoint item journaled by that
        // fold is in the same suffix and carries their summary.
        let entries = entry_ts
            .into_iter()
            .filter_map(|ts| self.log.get(ts).cloned())
            .collect();
        let statuses = actions
            .into_iter()
            .filter_map(|a| self.log.status_entry(a).map(|o| (a, o)))
            .collect();
        LogDelta {
            base: since,
            head: self.version,
            full: false,
            entries,
            statuses,
            checkpoint: if saw_checkpoint {
                self.log.checkpoint().cloned()
            } else {
                None
            },
        }
    }

    /// Applies a delta received from a peer serving this log's lineage —
    /// the mirror-side join. Idempotent and order-tolerant: stale deltas
    /// (already-subsumed content) are no-ops. Returns `false`, applying
    /// nothing, for a delta whose base is ahead of this mirror: it was cut
    /// for a copy this one is not (a front-end forgets a mirror when a
    /// delta write against it is refused, and a reply to a read sent
    /// before that may still be on its way).
    pub fn apply_delta(&mut self, delta: &LogDelta<I, R>) -> bool {
        if delta.full {
            if delta.head >= self.version {
                let gc = self.log.gc_aborted();
                self.log = delta.to_log();
                self.log.set_gc_aborted(gc);
                self.version = delta.head;
                self.journal.clear();
            }
            // An older full transfer is wholly subsumed: ignore it.
            return true;
        }
        if delta.base > self.version {
            return false;
        }
        if let Some(cp) = &delta.checkpoint {
            self.log.adopt_checkpoint(cp);
        }
        for e in &delta.entries {
            self.log.insert(e.clone());
        }
        for (a, o) in &delta.statuses {
            self.log.resolve(*a, *o);
        }
        self.version = self.version.max(delta.head);
        true
    }
}

/// Builds an entry for spec `S` (helper tying the generic parameters).
pub fn entry_of<S: Sequential>(
    ts: Timestamp,
    action: ActionId,
    begin_ts: Timestamp,
    inv: S::Inv,
    res: S::Res,
) -> LogEntry<S::Inv, S::Res> {
    LogEntry {
        ts,
        action,
        begin_ts,
        event: Event::new(inv, res),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(c: u64, n: u32) -> Timestamp {
        Timestamp {
            counter: c,
            node: n,
        }
    }

    fn entry(c: u64, n: u32, a: u32) -> LogEntry<&'static str, &'static str> {
        LogEntry {
            ts: ts(c, n),
            action: ActionId(a),
            begin_ts: ts(c, n),
            event: Event::new("inv", "res"),
        }
    }

    #[test]
    fn action_ids_split_back_into_client_and_sequence() {
        assert_eq!(action_parts(action_id(7, 42)), (7, 42));
        assert_eq!(
            action_parts(action_id(7, ACTION_SPAN - 1)),
            (7, ACTION_SPAN - 1)
        );
        assert_eq!(
            action_id(7, ACTION_SPAN),
            action_id(8, 0),
            "hence the assemble check"
        );
    }

    #[test]
    fn merge_is_idempotent_commutative_union() {
        let mut a = ObjectLog::new();
        a.insert(entry(1, 0, 0));
        a.insert(entry(2, 0, 0));
        let mut b = ObjectLog::new();
        b.insert(entry(2, 0, 0));
        b.insert(entry(3, 1, 1));

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.len(), 3);

        let mut aa = ab.clone();
        let effect = aa.merge(&ab);
        assert!(effect.is_empty());
        assert_eq!(aa, ab);
    }

    #[test]
    fn entries_iterate_in_timestamp_order() {
        let mut log = ObjectLog::new();
        log.insert(entry(3, 0, 0));
        log.insert(entry(1, 1, 1));
        log.insert(entry(1, 0, 2));
        let order: Vec<Timestamp> = log.entries().map(|e| e.ts).collect();
        assert_eq!(order, vec![ts(1, 0), ts(1, 1), ts(3, 0)]);
    }

    #[test]
    fn status_upgrades_but_never_downgrades() {
        let mut log: ObjectLog<&str, &str> = ObjectLog::new();
        assert_eq!(log.status(ActionId(0)), ActionOutcome::Active);
        assert!(log.resolve(ActionId(0), ActionOutcome::Committed(ts(5, 1))));
        assert!(!log.resolve(ActionId(0), ActionOutcome::Active));
        assert_eq!(log.status(ActionId(0)), ActionOutcome::Committed(ts(5, 1)));
    }

    #[test]
    fn statuses_gossip_through_merge() {
        let mut a: ObjectLog<&str, &str> = ObjectLog::new();
        let mut b: ObjectLog<&str, &str> = ObjectLog::new();
        b.resolve(ActionId(2), ActionOutcome::Aborted);
        a.merge(&b);
        assert_eq!(a.status(ActionId(2)), ActionOutcome::Aborted);
    }

    #[test]
    fn outcome_merge_table() {
        let c = ActionOutcome::Committed(ts(1, 0));
        assert_eq!(ActionOutcome::Active.merge(c), c);
        assert_eq!(c.merge(ActionOutcome::Active), c);
        assert_eq!(
            ActionOutcome::Aborted.merge(ActionOutcome::Aborted),
            ActionOutcome::Aborted
        );
        // Two different resolutions: the first stands, in every build.
        assert_eq!(c.merge(ActionOutcome::Aborted), c);
        assert_eq!(ActionOutcome::Aborted.merge(c), ActionOutcome::Aborted);
        assert!(c.contradicts(ActionOutcome::Aborted) && !c.contradicts(c));
        assert!(!c.contradicts(ActionOutcome::Active));
        assert!(c.is_resolved());
        assert!(!ActionOutcome::Active.is_resolved());
    }

    #[test]
    fn gc_drops_aborted_entries_and_blocks_reinsertion() {
        let mut log = ObjectLog::new();
        log.set_gc_aborted(true);
        log.insert(entry(1, 0, 7));
        log.insert(entry(2, 0, 8));
        assert!(log.resolve(ActionId(7), ActionOutcome::Aborted));
        assert_eq!(log.len(), 1, "aborted entries dropped");
        // Re-insertion via merge is refused; the tombstone survives.
        assert!(!log.insert(entry(1, 0, 7)));
        assert_eq!(log.status(ActionId(7)), ActionOutcome::Aborted);
    }

    #[test]
    fn gc_below_drops_durable_tombstones_but_keeps_live_commits() {
        let mut log = ObjectLog::new();
        log.insert(entry(1, 0, 1)); // committed, entry-bearing
        log.insert(entry(2, 0, 2)); // aborted
        log.resolve(ActionId(1), ActionOutcome::Committed(ts(9, 0)));
        log.resolve(ActionId(2), ActionOutcome::Aborted);
        log.resolve(ActionId(3), ActionOutcome::Committed(ts(10, 0))); // no entries
        let dropped = log.gc_below(&[ActionId(1), ActionId(2), ActionId(3), ActionId(4)]);
        assert_eq!(
            dropped,
            vec![ActionId(2), ActionId(3)],
            "tombstone + entry-less commit dropped"
        );
        // Entry-bearing commit status survives (readers still need it).
        assert_eq!(log.status(ActionId(1)), ActionOutcome::Committed(ts(9, 0)));
        // Aborted entries go with their tombstone.
        assert_eq!(log.len(), 1);
        assert_eq!(log.status_entry(ActionId(2)), None);
    }

    #[test]
    fn gc_below_judges_long_logs_as_it_does_short_ones() {
        // One pass over the entries answers for every stale commit, in a
        // short log and a long one alike; actions outside the candidate
        // list keep everything. Even actions keep an entry, odd ones are
        // committed without one; every third is aborted instead; the last
        // eight are not candidates.
        for len in [32u32, 192] {
            let mut log = ObjectLog::new();
            for a in 0..len {
                if a % 2 == 0 || a % 3 == 0 {
                    log.insert(entry(u64::from(a) + 1, 0, a));
                }
                let outcome = match a % 3 {
                    0 => ActionOutcome::Aborted,
                    _ => ActionOutcome::Committed(ts(1_000 + u64::from(a), 0)),
                };
                log.resolve(ActionId(a), outcome);
            }
            let stale: Vec<ActionId> = (0..len - 8).map(ActionId).collect();
            let expected: Vec<ActionId> = (0..len - 8)
                .filter(|a| a % 3 == 0 || a % 2 == 1)
                .map(ActionId)
                .collect();
            assert_eq!(log.gc_below(&stale), expected, "{len} actions");
            assert!(
                log.entries()
                    .all(|e| e.action.0 % 3 != 0 || e.action.0 >= len - 8),
                "aborted entries go"
            );
            let kept = (len - 8..len).filter(|a| a % 2 == 1 && a % 3 != 0).count();
            assert_eq!(
                log.status_count(),
                log.len() + kept,
                "entry-bearing commits and non-candidates stay"
            );
        }
    }

    #[test]
    fn versioned_gc_fences_readers_into_a_full_transfer() {
        let mut repo: VersionedLog<&str, &str> = VersionedLog::new();
        let mut mirror: VersionedLog<&str, &str> = VersionedLog::new();
        repo.insert(entry(1, 0, 1));
        repo.insert(entry(2, 0, 2));
        mirror.apply_delta(&repo.delta_since(0));
        assert_eq!(mirror.log(), repo.log());
        // The repo resolves action 2 aborted and GCs the tombstone; the
        // mirror still holds the entry with no status (a phantom lock).
        repo.resolve(ActionId(2), ActionOutcome::Aborted);
        assert_eq!(repo.gc_below(&[ActionId(2)]), vec![ActionId(2)]);
        let d = repo.delta_since(mirror.version());
        assert!(d.full, "GC fences the reader into a full transfer");
        mirror.apply_delta(&d);
        assert_eq!(mirror.log(), repo.log());
        assert_eq!(mirror.log().len(), 1, "stale aborted entry flushed");
        // A no-op GC does not fence.
        let v = repo.version();
        assert!(repo.gc_below(&[ActionId(1), ActionId(2)]).is_empty());
        assert_eq!(repo.version(), v);
    }

    /// The merge as it read before it learned to skip what is already
    /// held: adopt, then insert and resolve one by one.
    fn merge_one_by_one(
        into: &mut ObjectLog<&'static str, &'static str>,
        other: &ObjectLog<&'static str, &'static str>,
    ) -> MergeEffect {
        let mut effect = MergeEffect::default();
        if let Some(cp) = other.checkpoint() {
            effect.checkpoint = into.adopt_checkpoint(cp);
        }
        for e in other.entries() {
            if into.insert(e.clone()) {
                effect.entries.push(e.ts);
            }
        }
        for (a, o) in other.statuses() {
            if into.resolve(a, o) {
                effect.statuses.push(a);
            }
        }
        effect
    }

    /// A seeded log over a small universe of actions (action `a` commits
    /// at `100 + a` or aborts, the same way in every log), optionally with
    /// the lowest committed actions folded.
    fn random_log(
        rng: &mut impl rand::Rng,
        size: u32,
        gc: bool,
    ) -> ObjectLog<&'static str, &'static str> {
        let outcome = |a: u32| match a % 4 {
            0 => ActionOutcome::Aborted,
            _ => ActionOutcome::Committed(ts(100 + u64::from(a), 0)),
        };
        let mut log = ObjectLog::new();
        log.set_gc_aborted(gc);
        if rng.gen_bool(0.3) {
            let upto = rng.gen_range(1..4u32);
            let covered: Vec<(u32, u64)> = (1..=upto).map(|a| (a, 100 + u64::from(a))).collect();
            log.install_checkpoint(checkpoint_over(&covered, u64::from(upto)));
        }
        for _ in 0..size {
            let a = rng.gen_range(0..24u32);
            if rng.gen_bool(0.7) {
                log.insert(entry(u64::from(a) * 2 + rng.gen_range(0..2u64), 0, a));
            }
            if rng.gen_bool(0.5) {
                log.resolve(ActionId(a), outcome(a));
            }
        }
        log
    }

    #[test]
    fn merge_matches_the_one_by_one_join_on_random_logs() {
        use rand::{Rng as _, SeedableRng as _};
        let (mut copies, mut walks, mut lookups) = (0, 0, 0);
        for seed in 0..400u64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let gc = rng.gen_bool(0.3);
            // Every shape: into a blank log, a like-sized one, a far
            // longer one, and one that already holds it all.
            let mut into = match seed % 4 {
                0 => random_log(&mut rng, 0, gc),
                1 => random_log(&mut rng, 12, gc),
                _ => random_log(&mut rng, 60, gc),
            };
            let other = random_log(&mut rng, if seed % 4 == 2 { 2 } else { 12 }, false);
            if seed % 4 == 3 {
                into.merge(&other);
            }
            if into.is_blank() {
                copies += 1;
            } else if other.len() * WALK_RATIO < into.len() {
                lookups += 1;
            } else {
                walks += 1;
            }
            let mut reference = into.clone();
            let expected = merge_one_by_one(&mut reference, &other);
            let effect = into.merge(&other);
            assert_eq!(into, reference, "seed {seed}: logs differ");
            assert_eq!(
                (effect.entries, effect.statuses, effect.checkpoint),
                (expected.entries, expected.statuses, expected.checkpoint),
                "seed {seed}: effects differ"
            );
        }
        assert!(copies > 0 && walks > 0 && lookups > 0);
    }

    #[test]
    fn minus_ships_exactly_what_the_holder_lacks() {
        use rand::{Rng as _, SeedableRng as _};
        let mut slimmer = 0;
        for seed in 0..400u64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let held = random_log(&mut rng, 20, false);
            // The view: sometimes built on the holder's log, as a view
            // that merged its mirror is.
            let mut view = random_log(&mut rng, 12, false);
            if rng.gen_bool(0.7) {
                view.merge(&held);
            }
            let cut = view.minus(&held);
            slimmer += usize::from(cut.len() < view.len());
            // Any log containing `held` ends the same either way.
            let mut site = held.clone();
            site.merge(&random_log(&mut rng, 6, false));
            let (mut by_view, mut by_cut) = (site.clone(), site);
            by_view.merge(&view);
            by_cut.merge(&cut);
            assert_eq!(by_view, by_cut, "seed {seed}");
            for e in cut.entries() {
                assert!(
                    held.get(e.ts).is_none(),
                    "seed {seed}: shipped a held entry"
                );
                assert_eq!(
                    cut.status_entry(e.action),
                    view.status_entry(e.action),
                    "seed {seed}: an entry travelled without its status"
                );
            }
        }
        assert!(slimmer > 0);
    }

    #[test]
    fn minus_leaves_folded_history_and_an_equal_checkpoint_home() {
        let mut held: ObjectLog<&str, &str> = ObjectLog::new();
        held.install_checkpoint(checkpoint_over(&[(1, 10)], 1));
        let mut view = held.clone();
        view.insert(entry(20, 0, 2));
        let cut = view.minus(&held);
        assert!(cut.checkpoint().is_none(), "the holder has this checkpoint");
        assert_eq!(cut.len(), 1);
        // A view that still holds the raw prefix the holder folded ships
        // none of it; a holder without the checkpoint is sent it.
        let mut raw: ObjectLog<&str, &str> = ObjectLog::new();
        raw.insert(entry(1, 0, 1));
        raw.resolve(ActionId(1), ActionOutcome::Committed(ts(10, 0)));
        let cut = raw.minus(&held);
        assert_eq!((cut.len(), cut.status_count()), (0, 0));
        assert!(view.minus(&raw).checkpoint().is_some());
    }

    #[test]
    fn extends_holds_until_a_fence_a_jump_or_an_overflow() {
        let mut log: VersionedLog<&str, &str> = VersionedLog::new();
        log.insert(entry(1, 0, 1));
        log.insert(entry(2, 0, 2));
        let seen = log.version();
        assert!(log.extends(seen) && log.extends(seen - 1));
        assert!(!log.extends(seen + 1), "a base this log never reached");
        log.insert(entry(3, 0, 3));
        assert!(log.extends(seen), "additions keep every earlier copy");
        // A purge is subtractive: the fence refuses everything before it.
        log.resolve(ActionId(2), ActionOutcome::Aborted);
        let before = log.version();
        assert_eq!(log.gc_below(&[ActionId(2)]), vec![ActionId(2)]);
        assert!(!log.extends(before) && !log.extends(seen));
        assert!(log.extends(log.version()));
        // So is a recovery's jump, and a copy older than the journal.
        let before = log.version();
        log.advance_version(before + 10);
        assert!(!log.extends(before));
        for i in 0..(JOURNAL_CAP as u64 + 8) {
            log.insert(entry(100 + i, 0, 50 + i as u32));
        }
        assert!(!log.extends(before + 11), "fell off the journal");
        assert!(log.extends(log.version() - 5));
    }

    fn checkpoint_over(pairs: &[(u32, u64)], folded: u64) -> Checkpoint {
        let covered: BTreeMap<ActionId, Timestamp> = pairs
            .iter()
            .map(|(a, c)| (ActionId(*a), ts(*c, 0)))
            .collect();
        Checkpoint::new((), covered, folded)
    }

    #[test]
    fn checkpoint_covers_statuses_and_refuses_covered_entries() {
        let mut log = ObjectLog::new();
        log.insert(entry(1, 0, 1));
        log.insert(entry(2, 0, 2));
        log.resolve(ActionId(1), ActionOutcome::Committed(ts(10, 0)));
        log.install_checkpoint(checkpoint_over(&[(1, 10)], 1));
        assert_eq!(log.len(), 1, "covered entry dropped");
        assert_eq!(log.status(ActionId(1)), ActionOutcome::Committed(ts(10, 0)));
        assert!(log.status_entry(ActionId(1)).is_none(), "status pruned");
        assert!(!log.insert(entry(1, 0, 1)), "covered entry refused");
    }

    #[test]
    fn checkpoint_adoption_requires_a_superset() {
        let mut log: ObjectLog<&str, &str> = ObjectLog::new();
        assert!(log.adopt_checkpoint(&checkpoint_over(&[(1, 10)], 1)));
        // A divergent checkpoint (misses action 1) is refused even though
        // its horizon is larger.
        assert!(!log.adopt_checkpoint(&checkpoint_over(&[(2, 20)], 1)));
        // A strict extension is adopted.
        assert!(log.adopt_checkpoint(&checkpoint_over(&[(1, 10), (2, 20)], 2)));
        assert_eq!(log.checkpoint().unwrap().horizon(), ts(20, 0));
        // Re-adopting the same checkpoint is a no-op.
        assert!(!log.adopt_checkpoint(&checkpoint_over(&[(1, 10), (2, 20)], 2)));
    }

    #[test]
    fn delta_roundtrip_keeps_mirror_identical() {
        let mut repo: VersionedLog<&str, &str> = VersionedLog::new();
        let mut mirror: VersionedLog<&str, &str> = VersionedLog::new();
        repo.insert(entry(1, 0, 1));
        repo.insert(entry(2, 0, 2));
        let d1 = repo.delta_since(mirror.version());
        assert_eq!(d1.entries.len(), 2);
        assert!(mirror.apply_delta(&d1));
        assert_eq!(mirror.log(), repo.log());
        assert_eq!(mirror.version(), repo.version());

        repo.insert(entry(3, 1, 3));
        repo.resolve(ActionId(1), ActionOutcome::Committed(ts(9, 0)));
        let d2 = repo.delta_since(mirror.version());
        assert_eq!(d2.entries.len(), 1, "only the suffix ships");
        assert_eq!(d2.statuses.len(), 1);
        mirror.apply_delta(&d2);
        assert_eq!(mirror.log(), repo.log());

        // Re-applying old deltas is a no-op (idempotent join).
        mirror.apply_delta(&d1);
        mirror.apply_delta(&d2);
        assert_eq!(mirror.log(), repo.log());

        // An empty delta for an up-to-date mirror.
        let d3 = repo.delta_since(mirror.version());
        assert_eq!(d3.payload_entries(), 0);
        assert!(!d3.full);
    }

    #[test]
    fn delta_crosses_a_fold_via_the_checkpoint() {
        let mut repo: VersionedLog<&str, &str> = VersionedLog::new();
        let mut mirror: VersionedLog<&str, &str> = VersionedLog::new();
        repo.insert(entry(1, 0, 1));
        mirror.apply_delta(&repo.delta_since(0));
        // The repo resolves and folds action 1 while the mirror is away.
        repo.resolve(ActionId(1), ActionOutcome::Committed(ts(10, 0)));
        repo.install_checkpoint(checkpoint_over(&[(1, 10)], 1));
        repo.insert(entry(20, 0, 2));
        let d = repo.delta_since(mirror.version());
        assert!(d.checkpoint.is_some(), "fold ships the checkpoint");
        mirror.apply_delta(&d);
        assert_eq!(mirror.log(), repo.log());
        assert_eq!(mirror.log().len(), 1);
        assert_eq!(
            mirror.log().status(ActionId(1)),
            ActionOutcome::Committed(ts(10, 0))
        );
    }

    #[test]
    fn ancient_frontier_falls_back_to_full_transfer() {
        let mut repo: VersionedLog<&str, &str> = VersionedLog::new();
        for i in 0..(JOURNAL_CAP as u64 + 8) {
            repo.insert(entry(i + 1, 0, i as u32));
        }
        let d = repo.delta_since(1);
        assert!(d.full, "journal trimmed: full transfer");
        let mut mirror: VersionedLog<&str, &str> = VersionedLog::new();
        mirror.apply_delta(&repo.delta_since(0)); // also full? no: version 0 predates journal front only if trimmed
        let mut fresh: VersionedLog<&str, &str> = VersionedLog::new();
        fresh.apply_delta(&d);
        assert_eq!(fresh.log(), repo.log());
        assert_eq!(fresh.version(), repo.version());
    }
}
