//! One persistent view per object, holding the front-end's mirror of each
//! site that has replied about it as a *column* of the view's
//! *disagreement set*: the entry timestamps and actions at which some
//! mirror may differ from the view, each with the view's value and every
//! column's. Site *s*'s mirror is the view's log overridden at the keys in
//! doubt by column *s*, at the column's version and under its checkpoint.
//! **Invariant:** outside the set, the view and every mirror agree; a key
//! leaves the set once they all agree on it. A delta that only adds, a
//! round's merges and a write's cut read and write the set alone, so a
//! round costs what the mirrors disagree on, not the history. A site's
//! first reply, and what drops from a mirror — a full transfer, a
//! checkpoint, an abort under aborted-entry GC — or replaces it (full-log
//! shipping), is diffed into its column once, at the cost of a log walk.
//! A round's first reply drops the column of every other site outside the
//! object's configuration.

use crate::types::{
    folds, ActionOutcome, Checkpoint, LogDelta, LogEntry, ObjId, ObjectLog, VersionedLog,
};
use quorumcc_model::ActionId;
use quorumcc_sim::{ProcId, Timestamp};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};

/// A front-end's view of one object, and its mirrors of the sites' logs
/// of it as columns of the disagreement set.
#[derive(Debug, Clone)]
pub struct View<I, R> {
    log: ObjectLog<I, R>,
    /// Whether the mirrors drop aborted actions' entries
    /// ([`ObjectLog::set_gc_aborted`]); the view never does.
    gc: bool,
    /// One column per site with a mirror, in the order they opened.
    cols: Vec<Column>,
    /// The keys in doubt, each with its value in every slot: slot [`VIEW`]
    /// is the view's, slot `k` column `k - 1`'s. An entry never changes at
    /// its timestamp, so it is stored once, with a presence bit per slot.
    entries: Doubts<Timestamp, LogEntry<I, R>, bool>,
    statuses: Doubts<ActionId, (), Option<ActionOutcome>>,
    /// Whether no column has opened yet, so no round has read the view.
    blank: bool,
}

/// What a site's mirror holds beside its keys.
#[derive(Debug, Clone)]
struct Column {
    site: ProcId,
    version: u64,
    checkpoint: Option<Checkpoint>,
}

/// Keys in doubt, each with a payload and its value per slot.
type Doubts<K, X, V> = BTreeMap<K, (X, Vec<V>)>;

const VIEW: usize = 0;

fn agreed<V: PartialEq>(at: &[V]) -> bool {
    at.iter().all(|v| *v == at[VIEW])
}

/// Runs `f` on every key in doubt, then drops those all slots agree on
/// (and the root node an emptied map keeps).
fn each<K: Ord, X, V: PartialEq>(
    doubts: &mut Doubts<K, X, V>,
    mut f: impl FnMut(&K, &X, &mut Vec<V>),
) {
    doubts.retain(|k, (x, at)| {
        f(k, x, at);
        !agreed(at)
    });
    if doubts.is_empty() {
        doubts.clear();
    }
}

/// Sets slot `s` (of `slots`) at `key` to `to`. A key not in doubt, where
/// every slot holds what `was` gives, enters the set with its `payload` if
/// `to` differs from that.
fn mark<K: Ord, X, V: Copy + PartialEq>(
    doubts: &mut Doubts<K, X, V>,
    (slots, s): (usize, usize),
    key: K,
    to: V,
    was: impl FnOnce() -> V,
    payload: impl FnOnce() -> X,
) {
    match doubts.entry(key) {
        Entry::Vacant(doubt) => {
            let was = was();
            if to != was && slots > 1 {
                let mut at = vec![was; slots];
                at[s] = to;
                doubt.insert((payload(), at));
            }
        }
        Entry::Occupied(mut doubt) => {
            let at = &mut doubt.get_mut().1;
            at[s] = to;
            if agreed(at) {
                doubt.remove();
            }
        }
    }
}

impl<I: Clone, R: Clone> View<I, R> {
    /// A blank view with no mirrors; `gc` is the mirrors' aborted-entry GC.
    pub fn new(gc: bool) -> Self {
        View {
            log: ObjectLog::new(),
            gc,
            cols: Vec::new(),
            entries: BTreeMap::new(),
            statuses: BTreeMap::new(),
            blank: true,
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

    /// The sites with a mirror here.
    pub fn sites(&self) -> impl Iterator<Item = ProcId> + '_ {
        self.cols.iter().map(|c| c.site)
    }

    /// The version of `site`'s log its mirror reflects, 0 without one: the
    /// frontier of the next read from `site`.
    pub fn version(&self, site: ProcId) -> u64 {
        self.slot(site).map_or(0, |s| self.cols[s - 1].version)
    }

    /// `site`'s mirror, rebuilt from the view and its column.
    pub fn mirror(&self, site: ProcId) -> Option<VersionedLog<I, R>> {
        let s = self.slot(site)?;
        let mut log = self.log.clone();
        log.set_checkpoint(self.cols[s - 1].checkpoint.clone());
        log.set_gc_aborted(self.gc);
        for (ts, (e, at)) in &self.entries {
            log.set_entry(*ts, at[s].then(|| e.clone()));
        }
        for (a, (_, at)) in &self.statuses {
            log.set_status(*a, at[s]);
        }
        Some(VersionedLog::at(log, self.cols[s - 1].version))
    }

    /// Applies a reply's `delta` to `site`'s mirror as
    /// [`VersionedLog::apply_delta`] would, and returns what that does; a
    /// site without a mirror opens one, `delta` applied to a blank log. At
    /// each key the mirror held column `site`'s value if the key is in
    /// doubt, and the view's otherwise.
    pub fn advance(&mut self, site: ProcId, delta: &LogDelta<I, R>) -> bool {
        let Some(s) = self.slot(site) else {
            let mut mirror = VersionedLog::with_gc(self.gc);
            let applied = mirror.apply_delta(delta);
            self.open(site, mirror);
            return applied;
        };
        let aborts = |&(a, o): &(ActionId, ActionOutcome)| {
            self.gc && o == ActionOutcome::Aborted && self.status(s, a) != Some(o)
        };
        if delta.full || delta.checkpoint.is_some() || delta.statuses.iter().any(aborts) {
            let mut mirror = self.mirror(site).expect("an open column");
            let applied = mirror.apply_delta(delta);
            self.become_(s, mirror.log(), mirror.version());
            return applied;
        }
        if delta.base > self.cols[s - 1].version {
            return false;
        }
        // `ObjectLog::insert`'s and `upgrade`'s rules, on the mirror.
        let (slots, cp) = (
            (self.cols.len() + 1, s),
            self.cols[s - 1].checkpoint.as_ref(),
        );
        for e in (delta.entries.iter()).filter(|e| !folds(cp, e.action)) {
            if !self.gc || self.status(s, e.action) != Some(ActionOutcome::Aborted) {
                let (log, ts) = (&self.log, e.ts);
                let was = || log.get(ts).is_some();
                mark(&mut self.entries, slots, ts, true, was, || e.clone());
            }
        }
        for &(a, o) in (delta.statuses.iter()).filter(|(a, _)| !folds(cp, *a)) {
            let held = self.status(s, a);
            let next = held.unwrap_or(ActionOutcome::Active).merge(o);
            mark(&mut self.statuses, slots, a, Some(next), || held, || ());
        }
        let col = &mut self.cols[s - 1];
        col.version = col.version.max(delta.head);
        true
    }

    /// `site`'s mirror becomes the log `delta` holds, whatever it held: a
    /// reply under full-log shipping.
    pub fn replace(&mut self, site: ProcId, delta: &LogDelta<I, R>) {
        let mirror = VersionedLog::at(delta.to_log(), delta.head);
        match self.slot(site) {
            Some(s) => self.become_(s, mirror.log(), mirror.version()),
            None => self.open(site, mirror),
        }
    }

    /// Forgets `site`'s mirror, as a refused write does: its column goes,
    /// and the site's next read starts from nothing.
    pub fn reset(&mut self, site: ProcId) {
        let Some(s) = self.slot(site) else { return };
        self.cols.remove(s - 1);
        each(&mut self.entries, |_, _, at| _ = at.remove(s));
        each(&mut self.statuses, |_, _, at| _ = at.remove(s));
    }

    /// A round's first reply: the view becomes `site`'s mirror, as merging
    /// it into a blank log would leave it. Every other site outside
    /// `members` first loses its mirror ([`Self::reset`]): one that left
    /// the configuration keeps no column in the set.
    pub fn sync(&mut self, site: ProcId, members: &[ProcId]) {
        let gone = |c: &Column| c.site != site && !members.contains(&c.site);
        while let Some(c) = self.cols.iter().position(gone) {
            self.reset(self.cols[c].site);
        }
        self.sync_to(self.slot(site).expect("a mirror to sync to"));
    }

    /// The view becomes slot `s`'s mirror.
    fn sync_to(&mut self, s: usize) {
        let cp = &self.cols[s - 1].checkpoint;
        if self.log.checkpoint() != cp.as_ref() {
            self.log.set_checkpoint(cp.clone());
        }
        let log = &mut self.log;
        each(&mut self.entries, |ts, e, at| {
            if at[VIEW] != at[s] {
                log.set_entry(*ts, at[s].then(|| e.clone()));
                at[VIEW] = at[s];
            }
        });
        each(&mut self.statuses, |a, _, at| {
            if at[VIEW] != at[s] {
                log.set_status(*a, at[s]);
                at[VIEW] = at[s];
            }
        });
    }

    /// A later reply: `site`'s mirror joins the view as
    /// [`ObjectLog::merge`] would join it. What the view holds under a
    /// checkpoint it adopts from the mirror, the mirror lacks: it is all in
    /// doubt.
    pub fn join(&mut self, site: ProcId) {
        let s = self.slot(site).expect("a mirror to join");
        let (log, col) = (&mut self.log, &self.cols[s - 1]);
        let cp = (col.checkpoint.as_ref()).filter(|cp| cp.extends(log.checkpoint()));
        if let Some(cp) = cp {
            log.set_checkpoint(Some(cp.clone()));
        }
        each(&mut self.entries, |ts, e, at| {
            if folds(cp, e.action) {
                log.set_entry(*ts, None);
                at[VIEW] = false;
            } else if at[s] && !at[VIEW] {
                at[VIEW] = log.insert(e.clone());
            }
        });
        each(&mut self.statuses, |a, _, at| {
            if folds(cp, *a) {
                log.set_status(*a, None);
                at[VIEW] = None;
            } else if let Some((_, now)) = at[s].and_then(|o| log.upgrade(*a, o)) {
                at[VIEW] = Some(now);
            }
        });
    }

    /// What the view holds beyond `site`'s mirror — `view ∖ mirror`
    /// ([`ObjectLog::minus`]) — and the mirror's version; `None` without a
    /// mirror at a version to cut against.
    pub fn cut(&self, site: ProcId) -> Option<(ObjectLog<I, R>, u64)> {
        let col = (self.slot(site)).filter(|s| self.cols[s - 1].version > 0);
        let (s, col) = col.map(|s| (s, &self.cols[s - 1]))?;
        let folded = |a| folds(col.checkpoint.as_ref(), a);
        let mut out = ObjectLog::new();
        if self.log.checkpoint() != col.checkpoint.as_ref() {
            out.set_checkpoint(self.log.checkpoint().cloned());
        }
        for (ts, (e, at)) in &self.entries {
            if at[VIEW] && !at[s] && !folded(e.action) {
                out.set_entry(*ts, Some(e.clone()));
            }
        }
        for (a, (_, at)) in &self.statuses {
            if at[VIEW].is_some() && at[s] != at[VIEW] && !folded(*a) {
                out.set_status(*a, at[VIEW]);
            }
        }
        Some((self.log.carry_statuses(out), col.version))
    }

    /// Adds an entry to the view (the operation's own, before the write).
    pub fn insert(&mut self, entry: LogEntry<I, R>) {
        if self.log.insert(entry.clone()) {
            let slots = (self.cols.len() + 1, VIEW);
            mark(&mut self.entries, slots, entry.ts, true, || false, || entry);
        }
    }

    /// Records a resolution in the view (one the front-end knows).
    pub fn resolve(&mut self, action: ActionId, outcome: ActionOutcome) {
        if let Some((before, now)) = self.log.upgrade(action, outcome) {
            let slots = (self.cols.len() + 1, VIEW);
            mark(
                &mut self.statuses,
                slots,
                action,
                Some(now),
                || before,
                || (),
            );
        }
    }

    /// Blanks the view, keeping every mirror.
    pub fn clear(&mut self) {
        self.diff(VIEW, &ObjectLog::new());
        self.log = ObjectLog::new();
    }

    /// The entries this view stores: its log's, and one per timestamp in
    /// doubt.
    pub fn entries_held(&self) -> usize {
        self.log.len() + self.entries.len()
    }

    fn slot(&self, site: ProcId) -> Option<usize> {
        (self.cols.iter().position(|c| c.site == site)).map(|k| k + 1)
    }

    /// The status slot `s`'s log records for `action`.
    fn status(&self, s: usize, action: ActionId) -> Option<ActionOutcome> {
        (self.statuses.get(&action)).map_or_else(|| self.log.status_entry(action), |(_, at)| at[s])
    }

    /// Opens a column holding `mirror`, `site`'s: a copy of the view,
    /// diffed into `mirror` at the keys where the two differ. A view no
    /// column has opened on and that holds nothing takes the mirror's log.
    fn open(&mut self, site: ProcId, mirror: VersionedLog<I, R>) {
        let (version, checkpoint) = (mirror.version(), mirror.log().checkpoint().cloned());
        (self.cols).push(Column {
            site,
            version,
            checkpoint,
        });
        if std::mem::take(&mut self.blank) && self.log == ObjectLog::new() {
            self.log = mirror.into_log();
            self.log.set_gc_aborted(false);
            return;
        }
        each(&mut self.entries, |_, _, at| at.push(at[VIEW]));
        each(&mut self.statuses, |_, _, at| at.push(at[VIEW]));
        self.become_(self.cols.len(), mirror.log(), version);
    }

    /// Slot `s`'s mirror becomes `to`, at `version`.
    fn become_(&mut self, s: usize, to: &ObjectLog<I, R>, version: u64) {
        self.diff(s, to);
        let col = &mut self.cols[s - 1];
        (col.version, col.checkpoint) = (version, to.checkpoint().cloned());
    }

    /// Sets slot `s` to what `to` holds at every key of the set, the view
    /// and `to`: all the keys where the two can differ.
    fn diff(&mut self, s: usize, to: &ObjectLog<I, R>) {
        let (log, slots) = (&self.log, (self.cols.len() + 1, s));
        let entries = &mut self.entries;
        each(entries, |ts, _, at| at[s] = to.get(*ts).is_some());
        for e in log.entries().filter(|e| to.get(e.ts).is_none()) {
            mark(entries, slots, e.ts, false, || true, || e.clone());
        }
        for e in to.entries() {
            mark(
                entries,
                slots,
                e.ts,
                true,
                || log.get(e.ts).is_some(),
                || e.clone(),
            );
        }
        let statuses = &mut self.statuses;
        each(statuses, |a, _, at| at[s] = to.status_entry(*a));
        for (a, o) in log.statuses() {
            mark(statuses, slots, a, to.status_entry(a), || Some(o), || ());
        }
        for (a, o) in to.statuses() {
            mark(statuses, slots, a, Some(o), || log.status_entry(a), || ());
        }
    }
}

/// A front-end's views, one per object it has read, and the objects whose
/// view a live phase has read into since its first reply. Every mirror
/// renders, and only those views: what a phase assembled is state (a
/// refusal resends it), a parked view is not.
#[derive(Clone)]
pub(crate) struct Views<I, R> {
    pub(crate) of: BTreeMap<ObjId, View<I, R>>,
    pub(crate) live: BTreeSet<ObjId>,
}

impl<I: Clone + PartialEq, R: Clone + PartialEq> Views<I, R> {
    /// The phase on `obj` is over: its view is parked as its first mirror,
    /// so what only the view held — the round's own entry and the
    /// resolutions it wrote back — leaves the set, which keeps what the
    /// mirrors disagree on. The next round syncs it anyway.
    pub(crate) fn park(&mut self, obj: ObjId) {
        self.live.remove(&obj);
        let Some(view) = self.of.get_mut(&obj) else {
            return;
        };
        if !view.cols.is_empty() {
            view.sync_to(1);
        }
    }
}

impl<I, R> std::fmt::Debug for Views<I, R>
where
    I: Clone + PartialEq + std::fmt::Debug,
    R: Clone + PartialEq + std::fmt::Debug,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mirrors: BTreeMap<_, _> = (self.of.iter())
            .flat_map(|(o, v)| v.sites().filter_map(move |s| Some(((*o, s), v.mirror(s)?))))
            .collect();
        let live: BTreeMap<_, _> = (self.live.iter())
            .filter_map(|o| Some((o, self.of.get(o)?.log())))
            .collect();
        (f.debug_struct("Views"))
            .field("mirrors", &mirrors)
            .field("live", &live)
            .finish()
    }
}
