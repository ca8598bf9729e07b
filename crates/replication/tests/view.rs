//! The persistent view against the per-operation rebuild it replaced.
//!
//! Three repository logs evolve under random scripts — fresh entries,
//! resolutions, gossip between sites, status-GC fences, compaction
//! checkpoints, aborted-entry GC — while a front-end requests deltas from
//! them and receives the replies fresh, stale, duplicated and reordered,
//! some counted toward a read round and some not, forgets mirrors as a
//! refused write does, sees sites leave and rejoin the configuration and
//! one go silent for good, and writes its view back. The reference is the
//! front-end as it was: the round's replied mirrors merged into a blank log
//! as of each reply, and every write cut with `ObjectLog::minus`.

use proptest::prelude::*;
use quorumcc_model::{ActionId, Event};
use quorumcc_replication::types::{
    ActionOutcome, Checkpoint, LogDelta, LogEntry, ObjectLog, VersionedLog,
};
use quorumcc_replication::View;
use quorumcc_sim::Timestamp;
use std::collections::{BTreeMap, BTreeSet};

type Log = VersionedLog<u64, u64>;

fn ts(counter: u64) -> Timestamp {
    Timestamp { counter, node: 0 }
}

/// Action `a` commits at `1000 + a` unless `a` is a multiple of 4, which
/// aborts; every site and the front-end agree on it.
fn outcome(a: u32) -> ActionOutcome {
    match a % 4 {
        0 => ActionOutcome::Aborted,
        _ => ActionOutcome::Committed(ts(1000 + u64::from(a))),
    }
}

fn entry(a: u32) -> LogEntry<u64, u64> {
    LogEntry {
        ts: ts(u64::from(a) + 1),
        action: ActionId(a),
        begin_ts: ts(u64::from(a) + 1),
        event: Event::new(u64::from(a), 0),
    }
}

/// The checkpoint folding the committed actions among the first `upto`:
/// one per `upto`, so any two nest.
fn checkpoint(upto: u32) -> Option<Checkpoint> {
    let covered: BTreeMap<ActionId, Timestamp> = (0..upto)
        .filter_map(|a| match outcome(a) {
            ActionOutcome::Committed(at) => Some((ActionId(a), at)),
            _ => None,
        })
        .collect();
    (!covered.is_empty()).then(|| Checkpoint::new((), covered, u64::from(upto)))
}

/// The front-end under test and its reference, fed the same replies.
struct FrontEnd {
    gc: bool,
    mirrors: BTreeMap<u32, Log>,
    view: View<u64, u64>,
    /// The sites of the configuration, and one that stopped replying.
    members: BTreeSet<u32>,
    silent: Option<u32>,
    /// The live round: sites counted so far, and the reference view.
    round: Vec<u32>,
    merged: ObjectLog<u64, u64>,
    /// Requested replies, not yet delivered.
    inflight: Vec<(u32, LogDelta<u64, u64>)>,
    own: u32,
}

impl FrontEnd {
    /// Delivers a reply; `counted` ones take part in the live round.
    fn deliver(
        &mut self,
        site: u32,
        delta: &LogDelta<u64, u64>,
        counted: bool,
    ) -> Result<(), TestCaseError> {
        if self.silent == Some(site) {
            return Ok(());
        }
        let gc = self.gc;
        let mirror = (self.mirrors.entry(site)).or_insert_with(|| VersionedLog::with_gc(gc));
        if !self.view.advance(site, mirror, delta) || !counted {
            return Ok(());
        }
        let log = self.mirrors[&site].log();
        if self.round.is_empty() {
            let members = self
                .mirrors
                .iter()
                .filter(|(s, _)| self.members.contains(s));
            let all: Vec<_> = members.map(|(s, m)| (*s, m.log())).collect();
            self.view.sync(site, log, &all);
            self.merged = ObjectLog::new();
        } else {
            self.view.join(site, log);
        }
        self.merged.merge(log);
        self.round.push(site);
        prop_assert_eq!(self.view.log(), &self.merged);
        prop_assert!(!self.view.log().gc_aborted());
        Ok(())
    }

    /// Ends the live round: adds an entry of the front-end's own and what
    /// it knows resolved, then writes the view back to every site, each
    /// cut against its mirror (whole where there is none to cut against,
    /// or where the site's log no longer extends it).
    fn write(&mut self, sites: &mut [Log], known: u32) -> Result<(), TestCaseError> {
        if self.round.is_empty() {
            return Ok(());
        }
        self.round.clear();
        self.own += 1;
        let mine = entry(10_000 + self.own);
        self.view.insert(mine.clone());
        self.merged.insert(mine);
        for a in known..known + 3 {
            self.view.resolve(ActionId(a), outcome(a));
            self.merged.resolve(ActionId(a), outcome(a));
        }
        prop_assert_eq!(self.view.log(), &self.merged);
        for (s, site) in (0..).zip(sites.iter_mut()) {
            if self.silent == Some(s) {
                continue;
            }
            let Some(m) = self.mirrors.get(&s).filter(|m| m.version() > 0) else {
                site.merge(self.view.log());
                continue;
            };
            let cut = self.view.cut(s, m.log());
            prop_assert_eq!(&cut, &self.merged.minus(m.log()));
            if site.extends(m.version()) {
                site.merge(&cut);
            } else {
                // Refused: the whole view goes, and the mirror is forgotten.
                site.merge(self.view.log());
                self.mirrors.remove(&s);
                self.view.forget();
            }
        }
        Ok(())
    }
}

proptest! {
    #[test]
    fn views_match_the_rebuilt_reference(
        script in proptest::collection::vec((0u8..34, 0u32..3, 0u32..24), 40..400),
        gc in 0u8..2,
    ) {
        let gc = gc == 0;
        let mut sites: Vec<Log> = (0..3).map(|_| VersionedLog::with_gc(gc)).collect();
        let mut front = FrontEnd {
            gc,
            mirrors: BTreeMap::new(),
            view: View::default(),
            members: (0..3).collect(),
            silent: None,
            round: Vec::new(),
            merged: ObjectLog::new(),
            inflight: Vec::new(),
            own: 0,
        };
        let mut next = 0;
        for (op, s, arg) in script {
            let site = &mut sites[s as usize];
            match op {
                // A fresh entry at one site, and gossip between two.
                0..=6 => {
                    site.insert(entry(next));
                    next += 1;
                }
                7 | 8 => {
                    let other = sites[((s + 1) % 3) as usize].log().clone();
                    sites[s as usize].merge(&other);
                }
                // A resolution reaches one site.
                9..=12 => {
                    let a = next.saturating_sub(1 + arg);
                    site.resolve(ActionId(a), outcome(a));
                }
                // A status-GC fence: the reader's next reply is whole.
                13 => {
                    site.gc_below(|a| a.0 + 4 * arg < next && outcome(a.0).is_resolved());
                }
                // Compaction folds a committed prefix.
                14 => {
                    let resolved = |a: u32| site.log().status(ActionId(a)).is_resolved();
                    let upto = next.saturating_sub(4 * arg);
                    if (0..upto).all(resolved) {
                        if let Some(cp) = checkpoint(upto) {
                            let newer = site.log().checkpoint().is_none_or(|own| own.folded() < cp.folded());
                            if newer {
                                site.install_checkpoint(cp);
                            }
                        }
                    }
                }
                // A read request, answered from the site as it is now.
                15..=19 => {
                    let since = front.mirrors.get(&s).map_or(0, Log::version);
                    front.inflight.push((s, site.delta_since(since)));
                }
                // A reply delivered, in any order, counted or stale; or
                // delivered again.
                20..=26 if !front.inflight.is_empty() => {
                    let k = arg as usize % front.inflight.len();
                    let (from, delta) = if op < 25 {
                        front.inflight.remove(k)
                    } else {
                        front.inflight[k].clone()
                    };
                    front.deliver(from, &delta, arg % 3 != 0)?;
                }
                // The round assembles and writes back.
                27..=29 => front.write(&mut sites, next.saturating_sub(arg + 3))?,
                // A refused write: the mirror is forgotten.
                30 => {
                    front.mirrors.remove(&s);
                    front.view.forget();
                }
                // A site leaves the configuration, or rejoins it.
                31 if !front.members.remove(&s) => {
                    front.members.insert(s);
                }
                // A site stops replying for the rest of the script.
                32 if front.silent.is_none() && arg % 4 == 0 => front.silent = Some(s),
                _ => {}
            }
        }
    }
}
