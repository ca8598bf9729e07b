//! The three concurrency-control protocols, as pure functions over a
//! merged log view — the front-end's step 3 ("if the view indicates that
//! no synchronization conflicts exist, … chooses a response legal for the
//! view", §3.2).
//!
//! | Mode | Serialization order | Conflict discipline |
//! |------|--------------------|---------------------|
//! | `StaticTs` | Begin timestamps | Reed-style: abort when a dependency-related entry is uncommitted or later-timestamped |
//! | `Hybrid` | Commit timestamps | dependency-related tentative entries act as locks |
//! | `Dynamic2pl` | Commit order (≡ precedes) | non-commutation (`≥D`) tentative entries act as locks |
//!
//! All three use the same rule against a foreign entry `e`:
//! **conflict iff `rel(my_op, class(e))`** where `rel` is a verified
//! dependency relation for the mode's atomicity property. Theorem 6's two
//! interference conditions both contribute the pair in that orientation,
//! so the one-directional check is sound; the clause machinery in
//! `quorumcc-core` is what certifies `rel` covers every hazard.
//!
//! ## Pipelined reads
//!
//! The throughput engine's front-end overlaps initial-quorum reads for
//! *later* operations of a transaction with the write phases of earlier
//! ones (`TuningConfig::batch` sets the depth). That is compatible with
//! all three protocols because these functions are pure over the merged
//! view: what a read round does is *gather* a view, and views only grow
//! under merge. The front-end still **evaluates** operations strictly in
//! program order — [`Protocol::evaluate`] for op *k* runs only after ops
//! `0..k` have been evaluated and their tentative entries appended to
//! the views op *k* was merged against (the pipeline launches a read
//! early only when its object's shard is disjoint from every in-flight
//! or parked earlier op, so no same-object entry can be missed). An
//! early-gathered view is therefore the same view a sequential engine
//! would have gathered, possibly *minus* foreign entries that arrived in
//! the gap — and any such entry the view misses is caught where it is
//! authoritative: at the final quorum, where repositories validate the
//! write against reservations and report conflicts. Pipelining moves
//! message time around; the conflict arithmetic, and hence every
//! decision, is unchanged.
//!
//! ## Evaluation from a frontier
//!
//! "Pure over the view" need not mean "replays the view": between one
//! operation of a front-end and its next on the same object, the replay
//! set almost always only grows at the tail. An [`EvalCache`] holds the
//! state a replay reached and exactly which entries, under which outcomes,
//! it folded to get there; [`Protocol::evaluate_from`] checks the view
//! against that list and replays only what sorts after it, or — when a
//! commit landed below the cached key, the view lacks a folded entry or its
//! status, the checkpoint moved — empties the cache and rebuilds it in the
//! same pass. [`Protocol::evaluate`] is that pass on an empty cache, so the
//! cached answer is the replayed answer by construction (DESIGN §3.11).

use crate::types::{ActionOutcome, Checkpoint, LogEntry, ObjectLog};
use quorumcc_core::{minimal_dynamic_relation, minimal_static_relation, DependencyRelation};
use quorumcc_model::spec::ExploreBounds;
use quorumcc_model::{ActionId, Classified, Enumerable, EventClass, Sequential};
use quorumcc_sim::Timestamp;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::str::FromStr;

/// Which local atomicity property the protocol implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Static atomicity: Reed-style Begin-timestamp ordering.
    StaticTs,
    /// Hybrid atomicity: commit-time timestamps plus dependency locks.
    Hybrid,
    /// Strong dynamic atomicity: strict two-phase locking on
    /// non-commuting operation classes.
    Dynamic2pl,
}

impl Mode {
    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Mode::StaticTs => "static",
            Mode::Hybrid => "hybrid",
            Mode::Dynamic2pl => "dynamic-2pl",
        }
    }
}

impl fmt::Display for Mode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Reads back what [`Mode::name`] prints, and `dynamic` for `dynamic-2pl`.
impl FromStr for Mode {
    type Err = String;

    fn from_str(s: &str) -> Result<Mode, String> {
        [Mode::StaticTs, Mode::Hybrid, Mode::Dynamic2pl]
            .into_iter()
            .find(|mode| s == mode.name() || (s == "dynamic" && *mode == Mode::Dynamic2pl))
            .ok_or_else(|| format!("unknown mode: {s} (want static, hybrid or dynamic)"))
    }
}

/// Why an operation was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Conflict {
    /// The action owning the conflicting entry.
    pub with: ActionId,
    /// The conflicting entry's event class.
    pub on: EventClass,
    /// What kind of hazard.
    pub reason: ConflictReason,
}

/// The hazard category.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConflictReason {
    /// A dependency-related entry of another active action (a held lock).
    Lock,
    /// Static mode: a dependency-related entry with a later Begin
    /// timestamp already exists — this operation arrived too late.
    TooLate,
    /// Static mode: a dependency-related earlier entry is still
    /// uncommitted.
    DirtyPast,
}

impl fmt::Display for Conflict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let r = match self.reason {
            ConflictReason::Lock => "lock held",
            ConflictReason::TooLate => "too late",
            ConflictReason::DirtyPast => "uncommitted dependency",
        };
        write!(f, "{r}: {} by {}", self.on, self.with)
    }
}

/// A concurrency-control protocol: a mode plus the dependency relation it
/// enforces (which must be a verified dependency relation for the mode's
/// atomicity property — `≥S` for static, `≥D` for dynamic, any verified
/// hybrid relation for hybrid).
#[derive(Debug, Clone)]
pub struct Protocol {
    mode: Mode,
    rel: DependencyRelation,
    /// Per invocation class, what the relation says about it — derived
    /// from `rel` once, here, so it cannot go stale.
    tables: BTreeMap<&'static str, OpTable>,
}

/// What one invocation class depends on.
#[derive(Debug, Clone, Default)]
struct OpTable {
    /// The event classes it depends on directly (conflict candidates).
    related: Vec<EventClass>,
    /// Their transitive closure (what its replay must observe).
    closure: BTreeSet<EventClass>,
}

static NO_DEPENDENCIES: OpTable = OpTable {
    related: Vec::new(),
    closure: BTreeSet::new(),
};

impl Protocol {
    /// `mode` under the relation every run of it uses, computed from `S`'s
    /// specification within `bounds` — the paper's comparison as one rule.
    /// Static atomicity needs `≥S` (Theorem 6), which is also a hybrid
    /// dependency relation (Theorem 4; a minimal hybrid one is not unique,
    /// so hybrid runs under `≥S` too); strong dynamic atomicity needs `≥D`
    /// (Theorem 10) and runs under `≥S ∪ ≥D`.
    pub fn minimal<S: Enumerable + Classified>(mode: Mode, bounds: ExploreBounds) -> Self {
        let mut rel = minimal_static_relation::<S>(bounds).relation;
        if mode == Mode::Dynamic2pl {
            rel = rel.union(&minimal_dynamic_relation::<S>(bounds).relation);
        }
        Protocol::new(mode, rel)
    }

    /// Builds a protocol.
    pub fn new(mode: Mode, rel: DependencyRelation) -> Self {
        let mut tables: BTreeMap<&'static str, OpTable> = BTreeMap::new();
        for (op, class) in rel.iter() {
            let table = tables.entry(op).or_default();
            table.related.push(*class);
            table.closure.insert(*class);
        }
        // Close under "what it observes, observes": until nothing grows.
        loop {
            let before = tables.clone();
            for table in tables.values_mut() {
                let reached: Vec<EventClass> = (table.closure.iter())
                    .filter_map(|c| before.get(c.op))
                    .flat_map(|t| t.closure.iter().copied())
                    .collect();
                table.closure.extend(reached);
            }
            let size = |t: &OpTable| t.closure.len();
            if tables.values().map(size).eq(before.values().map(size)) {
                return Protocol { mode, rel, tables };
            }
        }
    }

    /// The atomicity property implemented.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// The dependency/conflict relation.
    pub fn rel(&self) -> &DependencyRelation {
        &self.rel
    }

    fn table(&self, op: &str) -> &OpTable {
        self.tables.get(op).unwrap_or(&NO_DEPENDENCIES)
    }

    /// Whether an invocation of `op` depends on events of `class` — the
    /// relation's `op ≥ class`.
    pub fn related(&self, op: &str, class: EventClass) -> bool {
        self.table(op).related.contains(&class)
    }

    /// The transitive closure of event classes an invocation of `op` must
    /// observe: its direct dependencies, their operations' dependencies,
    /// and so on. The §3.2 log-propagation argument guarantees these reach
    /// the view through quorum intersections.
    pub fn closure_classes(&self, op: &str) -> &BTreeSet<EventClass> {
        &self.table(op).closure
    }

    /// Evaluates invocation `inv` of `action` (begun at `begin_ts`)
    /// against the merged quorum view `log` plus the action's `own`
    /// previous entries (in program order), returning the response the
    /// front-end should give: [`Self::evaluate_from`] on an empty cache.
    ///
    /// # Errors
    ///
    /// Returns a [`Conflict`] when the mode's discipline refuses the
    /// operation (the transaction should abort or retry).
    pub fn evaluate<S: Classified>(
        &self,
        log: &ObjectLog<S::Inv, S::Res>,
        own: &[LogEntry<S::Inv, S::Res>],
        action: ActionId,
        begin_ts: Timestamp,
        inv: &S::Inv,
    ) -> Result<S::Res, Conflict> {
        self.evaluate_from::<S>(&mut EvalCache::default(), log, own, action, begin_ts, inv)
    }

    /// [`Self::evaluate`] from a frontier: `cache` holds the state after
    /// the committed closure entries of earlier views of this object, for
    /// invocations of `inv`'s class. The response is the one an empty
    /// cache gives; a conflict leaves the cache as it was.
    ///
    /// # Errors
    ///
    /// As [`Self::evaluate`].
    pub fn evaluate_from<S: Classified>(
        &self,
        cache: &mut EvalCache<S>,
        log: &ObjectLog<S::Inv, S::Res>,
        own: &[LogEntry<S::Inv, S::Res>],
        action: ActionId,
        begin_ts: Timestamp,
        inv: &S::Inv,
    ) -> Result<S::Res, Conflict> {
        debug_assert!(own.windows(2).all(|w| w[0].ts < w[1].ts));
        let op = S::op_class(inv);
        cache.evaluations += 1;
        if !self.advance(cache, op, log, action, begin_ts)? {
            cache.rebuilds += u64::from(!cache.folded.is_empty());
            cache.restart(log.checkpoint(), op);
            let rebuilt = self.advance(cache, op, log, action, begin_ts)?;
            debug_assert!(rebuilt, "an empty cache has nothing to contradict");
        }
        // Own entries follow every foreign one: static serializes them at
        // this action's Begin (whatever was replayed began earlier),
        // hybrid/dynamic after everything committed in the view.
        let mut state = cache.state.clone();
        for e in own {
            S::step(&mut state, &e.event.inv);
        }
        Ok(S::step(&mut state, inv))
    }

    /// One pass over the view: conflicts in log order, the check of the
    /// view against the cache and — if it holds — the suffix folded in.
    /// `Ok(false)`: the view contradicts the cache, which is untouched.
    ///
    /// They agree when the view has the same checkpoint, records every
    /// action with a folded entry under the outcome it was folded at,
    /// holds every folded entry, and nothing else in it serializes at or
    /// below the cached key (static: and the evaluating action began after
    /// everything folded). Entries never change and an entry's key is a
    /// function of its action's outcome, so the view's replay set is then
    /// the folded entries at their old keys followed by the suffix. A
    /// folded entry costs one compare; only the others pay a status lookup.
    fn advance<S: Classified>(
        &self,
        cache: &mut EvalCache<S>,
        op: &'static str,
        log: &ObjectLog<S::Inv, S::Res>,
        action: ActionId,
        begin_ts: Timestamp,
    ) -> Result<bool, Conflict> {
        if cache.checkpoint.as_ref() != log.checkpoint() {
            return Ok(false); // another base state
        }
        if self.mode == Mode::StaticTs && cache.key.is_some_and(|k| k.0 > begin_ts) {
            return Ok(false); // folded past this action's Begin
        }
        // Both lists run in action order: one walk.
        let mut known = log.statuses();
        let resolved_as_folded = (cache.committed.iter())
            .all(|c| c.0 != action && known.find(|s| s.0 >= c.0) == Some(*c));
        if !resolved_as_folded {
            return Ok(false); // a status this view does not know
        }
        let table = self.table(op);
        let conflict = |e: &LogEntry<S::Inv, S::Res>, on, reason| Conflict {
            with: e.action,
            on,
            reason,
        };
        // Folded entries met so far, and the suffix: (serialization key,
        // position in the folded list, entry, its action's outcome), in
        // log order.
        let mut met = 0;
        let mut suffix = Vec::new();
        for e in log.entries() {
            if cache.folded.get(met) == Some(&e.ts) {
                met += 1;
                continue;
            }
            if e.action == action {
                continue; // own entries come from `own` (authoritative)
            }
            let class = S::event_class(&e.event.inv, &e.event.res);
            let related = table.related.contains(&class);
            // The timestamp a committed entry serializes at, or out.
            let status = log.status(e.action);
            let at = match (self.mode, status) {
                (_, ActionOutcome::Aborted) => continue,
                (Mode::StaticTs, _) if e.begin_ts > begin_ts => {
                    // Serialized after me: never in my replay; if
                    // dependency-related, my insertion before it is the
                    // Theorem-6 interference — refuse.
                    if related {
                        return Err(conflict(e, class, ConflictReason::TooLate));
                    }
                    continue;
                }
                (Mode::StaticTs, ActionOutcome::Committed(_)) => e.begin_ts,
                (Mode::StaticTs, ActionOutcome::Active) => {
                    // Uncommitted earlier dependency: Reed would block;
                    // we abort (conservative, non-blocking).
                    if related {
                        return Err(conflict(e, class, ConflictReason::DirtyPast));
                    }
                    continue;
                }
                (Mode::Hybrid | Mode::Dynamic2pl, ActionOutcome::Committed(cts)) => cts,
                (Mode::Hybrid | Mode::Dynamic2pl, ActionOutcome::Active) => {
                    // A dependency-related tentative entry is a held lock.
                    if related {
                        return Err(conflict(e, class, ConflictReason::Lock));
                    }
                    continue;
                }
            };
            if !table.closure.contains(&class) {
                continue;
            }
            let key: EvalKey = (at, e.ts);
            if Some(key) <= cache.key {
                return Ok(false); // a commit landed below the frontier
            }
            suffix.push((key, met + suffix.len(), e, status));
        }
        if met != cache.folded.len() {
            return Ok(false); // a folded entry is gone from this view
        }
        if suffix.is_empty() {
            return Ok(true); // nothing committed since
        }
        cache.suffix_entries += suffix.len() as u64;
        for (_, pos, e, status) in &suffix {
            cache.folded.insert(*pos, e.ts);
            cache.committed.push((e.action, *status));
        }
        cache.committed.sort_by_key(|c| c.0);
        cache.committed.dedup();
        suffix.sort_unstable_by_key(|s| s.0);
        for (key, _, e, _) in suffix {
            S::step(&mut cache.state, &e.event.inv);
            cache.key = Some(key);
        }
        Ok(true)
    }
}

/// Where a committed entry serializes: the mode's timestamp for its action
/// (Begin under static, commit otherwise), then its own.
type EvalKey = (Timestamp, Timestamp);

/// The state of one object at a frontier, for invocations of one class
/// (see [`Protocol::evaluate_from`]): the checkpoint it started from, the
/// state after every committed closure entry folded so far, the largest
/// key folded, the folded entries' timestamps in log order and their
/// actions, with the outcome each was folded under, in action order.
#[derive(Clone)]
pub struct EvalCache<S: Sequential> {
    checkpoint: Option<Checkpoint>,
    state: S::State,
    key: Option<EvalKey>,
    folded: Vec<Timestamp>,
    committed: Vec<(ActionId, ActionOutcome)>,
    evaluations: u64,
    rebuilds: u64,
    suffix_entries: u64,
}

impl<S: Sequential> Default for EvalCache<S> {
    fn default() -> Self {
        EvalCache {
            checkpoint: None,
            state: S::initial(),
            key: None,
            folded: Vec::new(),
            committed: Vec::new(),
            evaluations: 0,
            rebuilds: 0,
            suffix_entries: 0,
        }
    }
}

impl<S: Sequential> EvalCache<S> {
    /// Empties the cache onto a view's checkpoint: its state for this op
    /// class is the fold of the covered prefix restricted to `op`'s closure
    /// — what the dropped entries would have contributed — and folds only
    /// cover commit timestamps below every surviving entry's position, so
    /// "checkpoint, then the entries" is the order the raw log would sort.
    fn restart(&mut self, checkpoint: Option<&Checkpoint>, op: &str) {
        self.checkpoint = checkpoint.cloned();
        self.state = (self.checkpoint.as_ref())
            .and_then(|cp| cp.state_as::<BTreeMap<&'static str, S::State>>())
            .and_then(|m| m.get(op).cloned())
            .unwrap_or_else(S::initial);
        self.key = None;
        self.folded.clear();
        self.committed.clear();
    }

    /// `(evaluations, rebuilds, entries replayed)` so far; a rebuild is a
    /// view that contradicted the cache and was replayed whole.
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.evaluations, self.rebuilds, self.suffix_entries)
    }
}

/// Renders nothing of the contents: `sim::explore` fingerprints process
/// state through `Debug`, and a cache depends on the path to a state.
impl<S: Sequential> fmt::Debug for EvalCache<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("EvalCache")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::entry_of;
    use quorumcc_core::certificates::prom_hybrid_relation;
    use quorumcc_model::testtypes::{QInv, QRes, TestQueue, TestRegister};

    fn ts(c: u64, n: u32) -> Timestamp {
        Timestamp {
            counter: c,
            node: n,
        }
    }

    fn bounds() -> ExploreBounds {
        ExploreBounds {
            depth: 4,
            ..ExploreBounds::default()
        }
    }

    fn queue_static() -> Protocol {
        Protocol::minimal::<TestQueue>(Mode::StaticTs, bounds())
    }

    fn queue_hybrid() -> Protocol {
        // ≥S is a hybrid dependency relation for the queue (Theorem 4).
        Protocol::minimal::<TestQueue>(Mode::Hybrid, bounds())
    }

    /// The rule every binary shares, against the two relations computed
    /// here; and a mode reads back from what it prints.
    #[test]
    fn minimal_is_s_for_static_and_hybrid_and_s_union_d_for_dynamic() {
        let s = minimal_static_relation::<TestQueue>(bounds()).relation;
        let d = minimal_dynamic_relation::<TestQueue>(bounds()).relation;
        assert!(!d.difference(&s).is_empty(), "≥D adds pairs to ≥S");
        for mode in [Mode::StaticTs, Mode::Hybrid, Mode::Dynamic2pl] {
            let p = Protocol::minimal::<TestQueue>(mode, bounds());
            let want = match mode {
                Mode::Dynamic2pl => s.union(&d),
                _ => s.clone(),
            };
            assert_eq!((p.mode(), p.rel()), (mode, &want));
            assert_eq!(mode.name().parse(), Ok(mode));
        }
        assert_eq!("dynamic".parse(), Ok(Mode::Dynamic2pl));
        assert!("2pl".parse::<Mode>().is_err());
        assert!("Hybrid".parse::<Mode>().is_err());
    }

    #[test]
    fn closure_reaches_transitive_dependencies() {
        let p = Protocol::new(Mode::Hybrid, prom_hybrid_relation());
        let read = p.closure_classes("Read");
        // Read ≥ Seal/Ok directly; Seal ≥ Write/Ok and Seal ≥ Read/Disabled
        // transitively.
        assert!(read.contains(&EventClass::new("Seal", "Ok")));
        assert!(read.contains(&EventClass::new("Write", "Ok")));
        assert!(read.contains(&EventClass::new("Read", "Disabled")));
        assert!(!read.contains(&EventClass::new("Read", "Ok")));
    }

    #[test]
    fn hybrid_replays_committed_in_commit_order() {
        let p = queue_hybrid();
        let mut log = ObjectLog::new();
        // Action A enqueues 1 (commit ts 10); B enqueues 2 (commit ts 5).
        log.insert(entry_of::<TestQueue>(
            ts(1, 0),
            ActionId(0),
            ts(1, 0),
            QInv::Enq(1),
            QRes::Ok,
        ));
        log.insert(entry_of::<TestQueue>(
            ts(2, 1),
            ActionId(1),
            ts(2, 1),
            QInv::Enq(2),
            QRes::Ok,
        ));
        log.resolve(ActionId(0), ActionOutcome::Committed(ts(10, 0)));
        log.resolve(ActionId(1), ActionOutcome::Committed(ts(5, 1)));
        // Commit order: B then A → queue [2, 1].
        let res = p
            .evaluate::<TestQueue>(&log, &[], ActionId(2), ts(20, 2), &QInv::Deq)
            .unwrap();
        assert_eq!(res, QRes::Item(2));
    }

    #[test]
    fn static_replays_in_begin_order() {
        let p = queue_static();
        let mut log = ObjectLog::new();
        // A began first (begin 1) but committed after B (begin 2).
        log.insert(entry_of::<TestQueue>(
            ts(3, 0),
            ActionId(0),
            ts(1, 0),
            QInv::Enq(1),
            QRes::Ok,
        ));
        log.insert(entry_of::<TestQueue>(
            ts(4, 1),
            ActionId(1),
            ts(2, 1),
            QInv::Enq(2),
            QRes::Ok,
        ));
        log.resolve(ActionId(0), ActionOutcome::Committed(ts(20, 0)));
        log.resolve(ActionId(1), ActionOutcome::Committed(ts(10, 1)));
        // Begin order: A then B → queue [1, 2].
        let res = p
            .evaluate::<TestQueue>(&log, &[], ActionId(2), ts(30, 2), &QInv::Deq)
            .unwrap();
        assert_eq!(res, QRes::Item(1));
    }

    #[test]
    fn tentative_dependency_is_a_lock_under_hybrid() {
        let p = queue_hybrid();
        let mut log = ObjectLog::new();
        log.insert(entry_of::<TestQueue>(
            ts(1, 0),
            ActionId(0),
            ts(1, 0),
            QInv::Enq(1),
            QRes::Ok,
        ));
        // A is active: its Enq blocks a Deq (Deq ≥ Enq/Ok)…
        let c = p
            .evaluate::<TestQueue>(&log, &[], ActionId(1), ts(5, 1), &QInv::Deq)
            .unwrap_err();
        assert_eq!(c.reason, ConflictReason::Lock);
        // …but not another Enq (no Enq ≥ Enq pair in ≥S).
        let r = p
            .evaluate::<TestQueue>(&log, &[], ActionId(1), ts(5, 1), &QInv::Enq(2))
            .unwrap();
        assert_eq!(r, QRes::Ok);
    }

    #[test]
    fn dynamic_locks_concurrent_enqueues() {
        let rel = quorumcc_core::minimal_dynamic_relation::<TestQueue>(ExploreBounds {
            depth: 4,
            ..ExploreBounds::default()
        })
        .relation;
        let p = Protocol::new(Mode::Dynamic2pl, rel);
        let mut log = ObjectLog::new();
        log.insert(entry_of::<TestQueue>(
            ts(1, 0),
            ActionId(0),
            ts(1, 0),
            QInv::Enq(1),
            QRes::Ok,
        ));
        // Enq ≥D Enq/Ok: a second concurrent enqueue conflicts.
        let c = p
            .evaluate::<TestQueue>(&log, &[], ActionId(1), ts(5, 1), &QInv::Enq(2))
            .unwrap_err();
        assert_eq!(c.reason, ConflictReason::Lock);
    }

    #[test]
    fn static_too_late_write_refused() {
        let rel = minimal_static_relation::<TestRegister>(ExploreBounds {
            depth: 4,
            ..ExploreBounds::default()
        })
        .relation;
        let p = Protocol::new(Mode::StaticTs, rel);
        let mut log = ObjectLog::new();
        // A committed Read with Begin ts 10.
        log.insert(entry_of::<TestRegister>(
            ts(11, 0),
            ActionId(0),
            ts(10, 0),
            None,
            0,
        ));
        log.resolve(ActionId(0), ActionOutcome::Committed(ts(12, 0)));
        // My Write began at 5 < 10: inserting it before the read would
        // invalidate it (Write ≥S Read/Ok).
        let c = p
            .evaluate::<TestRegister>(&log, &[], ActionId(1), ts(5, 1), &Some(7))
            .unwrap_err();
        assert_eq!(c.reason, ConflictReason::TooLate);
    }

    #[test]
    fn static_dirty_past_refused() {
        let rel = minimal_static_relation::<TestRegister>(ExploreBounds {
            depth: 4,
            ..ExploreBounds::default()
        })
        .relation;
        let p = Protocol::new(Mode::StaticTs, rel);
        let mut log = ObjectLog::new();
        // A (active) wrote at begin ts 5; my Read began at 10 and depends
        // on Write/Ok events.
        log.insert(entry_of::<TestRegister>(
            ts(6, 0),
            ActionId(0),
            ts(5, 0),
            Some(3),
            3,
        ));
        let c = p
            .evaluate::<TestRegister>(&log, &[], ActionId(1), ts(10, 1), &None)
            .unwrap_err();
        assert_eq!(c.reason, ConflictReason::DirtyPast);
    }

    #[test]
    fn own_entries_shape_the_response() {
        let p = queue_hybrid();
        let log = ObjectLog::new();
        let own = vec![entry_of::<TestQueue>(
            ts(2, 1),
            ActionId(1),
            ts(1, 1),
            QInv::Enq(7),
            QRes::Ok,
        )];
        let res = p
            .evaluate::<TestQueue>(&log, &own, ActionId(1), ts(1, 1), &QInv::Deq)
            .unwrap();
        assert_eq!(res, QRes::Item(7));
    }

    #[test]
    fn aborted_entries_are_invisible() {
        let p = queue_hybrid();
        let mut log = ObjectLog::new();
        log.insert(entry_of::<TestQueue>(
            ts(1, 0),
            ActionId(0),
            ts(1, 0),
            QInv::Enq(1),
            QRes::Ok,
        ));
        log.resolve(ActionId(0), ActionOutcome::Aborted);
        let res = p
            .evaluate::<TestQueue>(&log, &[], ActionId(1), ts(5, 1), &QInv::Deq)
            .unwrap();
        assert_eq!(res, QRes::Empty);
    }

    #[test]
    fn closure_filtering_keeps_replay_legal() {
        // A PROM Read's view excludes foreign Read/Ok entries (not in its
        // closure), so a stray Read/Ok from a class it cannot interpret
        // does not disturb the replay.
        use quorumcc_adts::prom::{PromInv, PromRes};
        let p = Protocol::new(Mode::Hybrid, prom_hybrid_relation());
        let mut log = ObjectLog::new();
        log.insert(entry_of::<quorumcc_adts::Prom>(
            ts(1, 0),
            ActionId(0),
            ts(1, 0),
            PromInv::Write(9),
            PromRes::Ok,
        ));
        log.insert(entry_of::<quorumcc_adts::Prom>(
            ts(2, 0),
            ActionId(0),
            ts(1, 0),
            PromInv::Seal,
            PromRes::Ok,
        ));
        log.resolve(ActionId(0), ActionOutcome::Committed(ts(3, 0)));
        let res = p
            .evaluate::<quorumcc_adts::Prom>(&log, &[], ActionId(1), ts(5, 1), &PromInv::Read)
            .unwrap();
        assert_eq!(res, PromRes::Item(9));
    }

    /// Three sites' logs of one object, foreign actions writing to and
    /// resolving at some of them, and one front-end evaluating against the
    /// union of two — the views a client builds, with everything that can
    /// contradict a cache: commits below earlier ones, statuses and entries
    /// at one site only, gossip, folds.
    struct World<S: Classified> {
        proto: Protocol,
        sites: [ObjectLog<S::Inv, S::Res>; 3],
        clock: u64,
        next_action: u32,
        /// Unresolved foreign actions: id, Begin, latest entry.
        active: Vec<(ActionId, Timestamp, Timestamp)>,
        /// Responses of generated events are read off this state.
        scratch: S::State,
        /// The evaluating front-end's action, and its entries so far.
        me: (ActionId, Timestamp),
        own: Vec<LogEntry<S::Inv, S::Res>>,
    }

    #[derive(Debug, Default)]
    struct Tally {
        answers: u64,
        conflicts: u64,
        advances: u64,
        rebuilds: u64,
    }

    type TestRng = rand::rngs::StdRng;

    impl<S: Classified + quorumcc_model::Enumerable> World<S> {
        fn new(proto: Protocol) -> Self {
            let mut w = World {
                proto,
                sites: [ObjectLog::new(), ObjectLog::new(), ObjectLog::new()],
                clock: 0,
                next_action: 0,
                active: Vec::new(),
                scratch: S::initial(),
                me: (ActionId(0), ts(0, 0)),
                own: Vec::new(),
            };
            w.begin_mine();
            w
        }

        fn tick(&mut self, rng: &mut TestRng, node: u32) -> Timestamp {
            use rand::Rng as _;
            self.clock += rng.gen_range(1..4u64);
            ts(self.clock, node)
        }

        fn fresh_action(&mut self) -> ActionId {
            self.next_action += 1;
            ActionId(self.next_action)
        }

        fn begin_mine(&mut self) {
            self.clock += 1;
            self.me = (self.fresh_action(), ts(self.clock, 0));
            self.own.clear();
        }

        /// One, two (mostly) or all three sites.
        fn some_sites(rng: &mut TestRng) -> Vec<usize> {
            use rand::Rng as _;
            let skip = rng.gen_range(0..3usize);
            match rng.gen_range(0..10u32) {
                0 => vec![skip],
                1..=3 => vec![0, 1, 2],
                _ => (0..3).filter(|s| *s != skip).collect(),
            }
        }

        fn write(&mut self, rng: &mut TestRng, entry: &LogEntry<S::Inv, S::Res>) {
            for s in Self::some_sites(rng) {
                self.sites[s].insert(entry.clone());
            }
        }

        fn resolve(&mut self, rng: &mut TestRng, action: ActionId, outcome: ActionOutcome) {
            for s in Self::some_sites(rng) {
                self.sites[s].resolve(action, outcome);
            }
        }

        /// An event with a plausible response, so every class turns up.
        fn event(&mut self, rng: &mut TestRng) -> (S::Inv, S::Res) {
            use rand::Rng as _;
            if rng.gen_bool(0.05) {
                self.scratch = S::initial();
            }
            let invs = S::invocations();
            let inv = invs[rng.gen_range(0..invs.len())].clone();
            let res = S::step(&mut self.scratch, &inv);
            (inv, res)
        }

        fn foreign_write(&mut self, rng: &mut TestRng) {
            use rand::Rng as _;
            if self.active.is_empty() || rng.gen_bool(0.4) {
                let action = self.fresh_action();
                let begin = self.tick(rng, action.0 % 5 + 1);
                self.active.push((action, begin, begin));
            }
            let at = rng.gen_range(0..self.active.len());
            let (action, begin, _) = self.active[at];
            let ets = self.tick(rng, begin.node);
            self.active[at].2 = ets;
            let (inv, res) = self.event(rng);
            self.write(rng, &entry_of::<S>(ets, action, begin, inv, res));
        }

        /// Commits — now, or at a timestamp just past the action's last
        /// entry, below commits already seen — or aborts.
        fn foreign_resolve(&mut self, rng: &mut TestRng) {
            use rand::Rng as _;
            if self.active.is_empty() {
                return;
            }
            let (action, begin, last) =
                self.active.swap_remove(rng.gen_range(0..self.active.len()));
            let outcome = match rng.gen_range(0..10u32) {
                0..=1 => ActionOutcome::Aborted,
                2..=3 => ActionOutcome::Committed(ts(last.counter + 1, begin.node)),
                _ => ActionOutcome::Committed(self.tick(rng, begin.node)),
            };
            self.resolve(rng, action, outcome);
        }

        /// Folds everything committed below the oldest undecided entry, the
        /// way `Repository::maybe_compact` does, and installs the checkpoint
        /// at some sites (the rest adopt it through merges).
        fn fold(&mut self, rng: &mut TestRng) {
            let mut all = ObjectLog::new();
            for s in &self.sites {
                all.merge(s);
            }
            let bound = (all.entries())
                .filter(|e| !all.status(e.action).is_resolved())
                .map(|e| e.ts)
                .min()
                .unwrap_or(ts(u64::MAX, 0));
            let mut fold: Vec<_> = (all.entries())
                .filter_map(|e| match all.status(e.action) {
                    ActionOutcome::Committed(cts) if cts < bound => Some(((cts, e.ts), e)),
                    _ => None,
                })
                .collect();
            if fold.is_empty() {
                return;
            }
            fold.sort_by_key(|f| f.0);
            let previous = all.checkpoint();
            let mut states: BTreeMap<&'static str, S::State> = previous
                .and_then(|cp| cp.state_as::<BTreeMap<&'static str, S::State>>())
                .cloned()
                .unwrap_or_else(|| {
                    S::op_classes()
                        .iter()
                        .map(|op| (*op, S::initial()))
                        .collect()
                });
            for (op, state) in &mut states {
                let closure = self.proto.closure_classes(op);
                for (_, e) in &fold {
                    if closure.contains(&S::event_class(&e.event.inv, &e.event.res)) {
                        S::step(state, &e.event.inv);
                    }
                }
            }
            let mut covered = previous.map(|cp| cp.covered().clone()).unwrap_or_default();
            covered.extend(fold.iter().map(|((cts, _), e)| (e.action, *cts)));
            let folded = previous.map_or(0, Checkpoint::folded) + fold.len() as u64;
            let cp = Checkpoint::new(states, covered, folded);
            for s in Self::some_sites(rng) {
                self.sites[s].install_checkpoint(cp.clone());
            }
        }

        /// One evaluation on the union of two sites: the long-lived cache
        /// for the op class against a cache made for the occasion. Now and
        /// then the caches are lent to an evaluator no front-end would be:
        /// some action that may have committed since, begun at any time.
        fn evaluate(
            &mut self,
            rng: &mut TestRng,
            caches: &mut BTreeMap<&'static str, EvalCache<S>>,
            tally: &mut Tally,
        ) {
            use rand::Rng as _;
            let skip = rng.gen_range(0..3usize);
            let mut view = ObjectLog::new();
            for s in (0..3).filter(|s| *s != skip) {
                view.merge(&self.sites[s]);
            }
            let invs = S::invocations();
            let inv = invs[rng.gen_range(0..invs.len())].clone();
            let mine = rng.gen_bool(0.95);
            let ((action, begin), own) = match mine {
                true => (self.me, &self.own[..]),
                false => {
                    let action = ActionId(rng.gen_range(1..=self.next_action));
                    ((action, ts(rng.gen_range(0..=self.clock), 9)), &[][..])
                }
            };
            let cache = caches.entry(S::op_class(&inv)).or_default();
            let (held, before) = (cache.folded.len(), cache.counters());
            let got = (self.proto).evaluate_from(cache, &view, own, action, begin, &inv);
            let mut fresh = EvalCache::<S>::default();
            let want = (self.proto).evaluate_from(&mut fresh, &view, own, action, begin, &inv);
            assert_eq!(got, want, "cached and fresh evaluation disagree");
            let after = cache.counters();
            tally.rebuilds += after.1 - before.1;
            match got {
                Ok(res) => {
                    assert_eq!(
                        (&cache.state, &cache.folded, &cache.committed, cache.key),
                        (&fresh.state, &fresh.folded, &fresh.committed, fresh.key),
                        "the cache is not where a replay of this view ends"
                    );
                    tally.answers += 1;
                    tally.advances +=
                        u64::from(held > 0 && after.1 == before.1 && after.2 > before.2);
                    if mine && rng.gen_bool(0.6) {
                        let ets = self.tick(rng, 0);
                        let entry = entry_of::<S>(ets, action, begin, inv, res);
                        self.write(rng, &entry);
                        self.own.push(entry);
                    }
                }
                Err(_) => {
                    tally.conflicts += 1;
                    if mine && rng.gen_bool(0.5) {
                        self.resolve(rng, action, ActionOutcome::Aborted);
                        self.begin_mine();
                    }
                }
            }
        }

        fn run(proto: Protocol, seed: u64, tally: &mut Tally) {
            use rand::{Rng as _, SeedableRng as _};
            let mut rng = TestRng::seed_from_u64(seed);
            let mut w = World::<S>::new(proto);
            let mut caches = BTreeMap::new();
            for _ in 0..160 {
                match rng.gen_range(0..100u32) {
                    0..=19 => w.foreign_write(&mut rng),
                    20..=44 => w.foreign_resolve(&mut rng),
                    45..=52 => {
                        let (from, to) = (rng.gen_range(0..3usize), rng.gen_range(0..3usize));
                        let other = w.sites[from].clone();
                        w.sites[to].merge(&other);
                    }
                    // Static serializes by Begin and never folds.
                    53..=56 if w.proto.mode() != Mode::StaticTs => w.fold(&mut rng),
                    53..=61 => {
                        let (action, _) = w.me;
                        let cts = w.tick(&mut rng, 0);
                        w.resolve(&mut rng, action, ActionOutcome::Committed(cts));
                        w.begin_mine();
                    }
                    _ => w.evaluate(&mut rng, &mut caches, tally),
                }
            }
        }
    }

    #[test]
    fn cached_evaluation_matches_fresh_on_random_view_sequences() {
        use quorumcc_adts::{Prom, Queue};
        use quorumcc_core::minimal_dynamic_relation;
        let bounds = ExploreBounds {
            depth: 4,
            ..ExploreBounds::default()
        };
        let queue_s = minimal_static_relation::<Queue>(bounds).relation;
        let queue_d = minimal_dynamic_relation::<Queue>(bounds).relation;
        let prom_s = minimal_static_relation::<Prom>(bounds).relation;
        let prom_d = minimal_dynamic_relation::<Prom>(bounds).relation;
        let queue = [
            Protocol::new(Mode::StaticTs, queue_s.clone()),
            Protocol::new(Mode::Hybrid, queue_s),
            Protocol::new(Mode::Dynamic2pl, queue_d),
        ];
        let prom = [
            Protocol::new(Mode::StaticTs, prom_s),
            Protocol::new(Mode::Hybrid, prom_hybrid_relation()),
            Protocol::new(Mode::Dynamic2pl, prom_d),
        ];
        for (q, p) in queue.iter().zip(&prom) {
            let (mut on_queue, mut on_prom) = (Tally::default(), Tally::default());
            for seed in 0..200u64 {
                World::<Queue>::run(q.clone(), seed, &mut on_queue);
                World::<Prom>::run(p.clone(), seed, &mut on_prom);
            }
            for t in [on_queue, on_prom] {
                let all_occurred =
                    t.answers > 0 && t.conflicts > 0 && t.advances > 0 && t.rebuilds > 0;
                assert!(all_occurred, "{}: {t:?}", q.mode());
            }
        }
    }
}
