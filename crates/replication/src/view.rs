//! One persistent view per object, kept across read rounds beside a
//! *disagreement set*: the entry timestamps and actions at which some
//! mirror of the object may differ from it, each with the view's value and
//! every mirror's. **Invariant:** outside the set, the view and every
//! mirror it describes agree (checkpoints included). A round's merges and
//! write cuts read the set alone, so a round costs what the mirrors
//! disagree on, not the history. Every per-key rule stays [`ObjectLog`]'s.

use crate::types::{ActionOutcome, LogDelta, LogEntry, ObjectLog, VersionedLog};
use quorumcc_model::ActionId;
use quorumcc_sim::{ProcId, Timestamp};
use std::collections::{BTreeMap, BTreeSet};

/// A front-end's view of one object and its disagreement set. A fresh or
/// forgotten view is *whole*: [`Self::join`] and [`Self::cut`] are
/// [`ObjectLog::merge`] and [`ObjectLog::minus`], and the next
/// [`Self::sync`] copies its mirror and diffs it with every other (unless
/// their checkpoints differ, which keeps the view whole).
#[derive(Debug, Clone)]
pub struct View<I, R> {
    log: ObjectLog<I, R>,
    /// The sites whose mirrors the set describes, in order: its columns.
    sites: Vec<ProcId>,
    entries: Doubts<Timestamp, LogEntry<I, R>>,
    statuses: Doubts<ActionId, ActionOutcome>,
    whole: bool,
}

/// Keys in doubt of one kind, each with the view's value and every
/// mirror's, by column.
#[derive(Debug, Clone)]
struct Doubts<K, V>(BTreeMap<K, (Option<V>, Vec<Option<V>>)>);

impl<K: Ord + Copy, V: Clone + PartialEq> Doubts<K, V> {
    /// The doubt at `key`, entered if it was not in doubt — where the view
    /// and all `n` mirrors held `before`.
    fn at(&mut self, key: K, n: usize, before: Option<V>) -> &mut (Option<V>, Vec<Option<V>>) {
        (self.0.entry(key)).or_insert_with(|| (before.clone(), vec![before; n]))
    }

    /// Moves the view at each key to `take(key, view's, column col's)`
    /// where that gives a value, and drops the keys every mirror agrees on.
    fn fold(
        &mut self,
        col: usize,
        mut take: impl FnMut(K, &Option<V>, &Option<V>) -> Option<Option<V>>,
    ) {
        self.0.retain(|key, (view, at)| {
            if let Some(now) = take(*key, view, &at[col]) {
                *view = now;
            }
            at.iter().any(|held| held != view)
        });
    }

    /// `keys` in doubt where some mirror's value (`get` reads it) differs
    /// from the view's.
    fn of<I, R>(
        keys: BTreeSet<K>,
        view: &ObjectLog<I, R>,
        mirrors: &[(ProcId, &ObjectLog<I, R>)],
        get: impl Fn(&ObjectLog<I, R>, K) -> Option<V>,
    ) -> Self {
        let doubt = |k| {
            let at: Vec<_> = mirrors.iter().map(|(_, m)| get(m, k)).collect();
            (k, (get(view, k), at))
        };
        let all = keys.into_iter().map(doubt);
        Doubts(
            all.filter(|(_, (v, at))| at.iter().any(|h| h != v))
                .collect(),
        )
    }
}

impl<I: Clone, R: Clone> Default for View<I, R> {
    fn default() -> Self {
        View {
            log: ObjectLog::new(),
            sites: Vec::new(),
            entries: Doubts(BTreeMap::new()),
            statuses: Doubts(BTreeMap::new()),
            whole: true,
        }
    }
}

impl<I: Clone + PartialEq, R: Clone + PartialEq> View<I, R> {
    /// The view: after a round's replies, the merge of the mirrors they
    /// left, each as of its reply; after [`Self::insert`] and
    /// [`Self::resolve`], what the round writes back.
    pub fn log(&self) -> &ObjectLog<I, R> {
        &self.log
    }

    /// Applies `delta` to `mirror`, the object's mirror of `site`'s log,
    /// and records every key it changes there; returns what
    /// [`VersionedLog::apply_delta`] does. A delta changes only what it
    /// names, except where a log drops what it is not told about — a full
    /// transfer, a checkpoint, an abort under aborted-entry GC: those, and
    /// a mirror the set does not describe, make the view whole. A mirror
    /// changes only here, or before [`Self::forget`].
    pub fn advance(
        &mut self,
        site: ProcId,
        mirror: &mut VersionedLog<I, R>,
        delta: &LogDelta<I, R>,
    ) -> bool {
        let m = mirror.log();
        let aborts = |(a, o): &(ActionId, ActionOutcome)| {
            *o == ActionOutcome::Aborted && m.status_entry(*a) != Some(*o)
        };
        self.whole |= delta.full
            || delta.checkpoint.is_some()
            || (m.gc_aborted() && delta.statuses.iter().any(aborts));
        let Some(col) = self.column(site).filter(|_| !self.whole) else {
            self.whole = true;
            return mirror.apply_delta(delta);
        };
        // A key the delta changes but that is not in doubt held the same
        // value in the view and every mirror, this one's included.
        let (n, entries, statuses) = (self.sites.len(), &mut self.entries, &mut self.statuses);
        mirror.apply_delta_with(
            delta,
            |e| entries.at(e.ts, n, None).1[col] = Some(e.clone()),
            |a, (before, now)| statuses.at(a, n, before).1[col] = Some(now),
        )
    }

    /// A round's first reply: the view becomes `to`, the mirror of `site`
    /// among `mirrors` (the object's members', in site order), as merging
    /// it into a blank log would leave it. Other mirrors than the set
    /// describes rebuild it.
    pub fn sync(
        &mut self,
        site: ProcId,
        to: &ObjectLog<I, R>,
        mirrors: &[(ProcId, &ObjectLog<I, R>)],
    ) {
        let sites = mirrors.iter().map(|(s, _)| *s);
        let same = !self.whole && sites.clone().eq(self.sites.iter().copied());
        let Some(col) = self.column(site).filter(|_| same) else {
            let agree = (mirrors.iter()).all(|(_, m)| m.checkpoint() == to.checkpoint());
            let (mut entries, mut statuses) = (BTreeSet::new(), BTreeSet::new());
            let others = mirrors
                .iter()
                .filter(|(_, m)| agree && !std::ptr::eq(*m, to));
            for cut in others.flat_map(|(_, m)| [to.minus(m), m.minus(to)]) {
                entries.extend(cut.entries().map(|e| e.ts));
                statuses.extend(cut.statuses().map(|(a, _)| a));
            }
            *self = View {
                log: to.clone(),
                sites: sites.collect(),
                entries: Doubts::of(entries, to, mirrors, |m, ts| m.get(ts).cloned()),
                statuses: Doubts::of(statuses, to, mirrors, ObjectLog::status_entry),
                whole: !agree,
            };
            self.log.set_gc_aborted(false);
            return;
        };
        let log = &mut self.log;
        self.entries.fold(col, |ts, view, held| {
            (view != held).then(|| {
                log.unset_entry(ts);
                held.clone().filter(|e| log.insert(e.clone()))
            })
        });
        self.statuses.fold(col, |a, view, held| {
            (view != held).then(|| {
                log.unset_status(a);
                Some(log.upgrade(a, (*held)?)?.1)
            })
        });
    }

    /// A later reply: `log`, the mirror of `site`, joins the view as
    /// [`ObjectLog::merge`] would join it.
    pub fn join(&mut self, site: ProcId, log: &ObjectLog<I, R>) {
        let Some(col) = self.column(site).filter(|_| !self.whole) else {
            self.log.merge(log);
            return;
        };
        let view = &mut self.log;
        self.entries.fold(col, |_, mine, held| match (mine, held) {
            (None, Some(e)) if view.insert(e.clone()) => Some(Some(e.clone())),
            _ => None,
        });
        (self.statuses).fold(col, |a, _, held| Some(Some(view.upgrade(a, (*held)?)?.1)));
    }

    /// What the view holds beyond `held`, the mirror of `site`:
    /// `view ∖ held` ([`ObjectLog::minus`]).
    pub fn cut(&self, site: ProcId, held: &ObjectLog<I, R>) -> ObjectLog<I, R> {
        let Some(col) = self.column(site).filter(|_| !self.whole) else {
            return self.log.minus(held);
        };
        let mut out = ObjectLog::new();
        for (mine, at) in self.entries.0.values() {
            if let (Some(e), None) = (mine, &at[col]) {
                out.insert(e.clone());
            }
        }
        for (a, (mine, at)) in &self.statuses.0 {
            if let Some(o) = mine.filter(|_| at[col] != *mine) {
                out.resolve(*a, o);
            }
        }
        self.log.carry_statuses(out)
    }

    /// Adds an entry to the view (the operation's own, before the write).
    pub fn insert(&mut self, entry: LogEntry<I, R>) {
        if self.log.insert(entry.clone()) && !self.whole {
            let (ts, n) = (entry.ts, self.sites.len());
            self.entries.at(ts, n, None).0 = Some(entry);
        }
    }

    /// Records a resolution in the view (one the front-end knows).
    pub fn resolve(&mut self, action: ActionId, outcome: ActionOutcome) {
        if let Some((before, now)) = self.log.upgrade(action, outcome).filter(|_| !self.whole) {
            let n = self.sites.len();
            self.statuses.at(action, n, before).0 = Some(now);
        }
    }

    /// Makes the view whole, keeping the log: for a view that holds what
    /// no mirror describes (a reply taken whole), or whose mirrors changed
    /// out of [`Self::advance`]'s sight (one was forgotten).
    pub fn forget(&mut self) {
        self.whole = true;
    }

    /// Whether the view is whole: its next [`Self::sync`] rebuilds it.
    pub fn is_whole(&self) -> bool {
        self.whole
    }

    fn column(&self, site: ProcId) -> Option<usize> {
        self.sites.binary_search(&site).ok()
    }
}
