//! The persistent view, and the mirrors it holds as columns, against the
//! per-operation rebuild over explicit mirrors it replaced.
//!
//! Three repository logs evolve under random scripts — fresh entries,
//! resolutions, gossip between sites, status-GC fences, compaction
//! checkpoints, aborted-entry GC — while a front-end requests deltas from
//! them and receives the replies fresh, stale, duplicated and reordered,
//! some counted toward a read round and some not, some under full-log
//! shipping, forgets mirrors as a refused write does, sees sites leave and
//! rejoin the configuration and one go silent for good, and writes its
//! view back. The reference is the front-end as it was: a `VersionedLog`
//! mirror per site, the round's replied mirrors merged into a blank log as
//! of each reply, and every write cut with `ObjectLog::minus`. After every
//! step, each mirror rebuilt from the view and its column must equal its
//! reference: log, version and checkpoint.

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
    /// The reference mirrors, one per site that has replied.
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
    /// How often each path that replaces what a mirror held ran: a full
    /// transfer, a checkpoint adopted, an abort under aborted-entry GC, a
    /// forgotten mirror, a reply under full-log shipping, a departed
    /// site's mirror dropped when a round starts.
    paths: [u32; 6],
}

impl FrontEnd {
    fn new(gc: bool) -> Self {
        FrontEnd {
            gc,
            mirrors: BTreeMap::new(),
            view: View::new(gc),
            members: (0..3).collect(),
            silent: None,
            round: Vec::new(),
            merged: ObjectLog::new(),
            inflight: Vec::new(),
            own: 0,
            paths: [0; 6],
        }
    }

    /// The view holds a mirror of every site the reference does, and each
    /// equals its reference. It stores one entry per timestamp in its log
    /// or where some mirror differs from it.
    fn check_mirrors(&self) -> Result<(), TestCaseError> {
        let sites: BTreeSet<u32> = self.view.sites().collect();
        prop_assert!(sites.iter().eq(self.mirrors.keys()));
        let at = |log: &ObjectLog<u64, u64>| -> BTreeSet<Timestamp> {
            log.entries().map(|e| e.ts).collect()
        };
        let mut doubted = BTreeSet::new();
        for m in self.mirrors.values() {
            doubted.extend(
                at(m.log())
                    .symmetric_difference(&at(self.view.log()))
                    .copied(),
            );
        }
        prop_assert_eq!(
            self.view.entries_held(),
            self.view.log().len() + doubted.len()
        );
        for (s, want) in &self.mirrors {
            let got = self.view.mirror(*s).expect("a column per mirror");
            prop_assert_eq!(got.log(), want.log());
            prop_assert_eq!(got.version(), want.version());
            prop_assert_eq!(got.log().checkpoint(), want.log().checkpoint());
            prop_assert_eq!(got.log().gc_aborted(), want.log().gc_aborted());
        }
        Ok(())
    }

    /// Delivers a reply; `counted` ones take part in the live round, which
    /// the first of them starts by dropping the mirror of every other site
    /// outside the configuration. `full_log` ones are what full-log shipping answers with: the
    /// mirror becomes their log, whatever it held.
    fn deliver(
        &mut self,
        site: u32,
        delta: &LogDelta<u64, u64>,
        counted: bool,
        full_log: bool,
    ) -> Result<(), TestCaseError> {
        if self.silent == Some(site) {
            return Ok(());
        }
        let gc = self.gc;
        let mirror = (self.mirrors.entry(site)).or_insert_with(|| VersionedLog::with_gc(gc));
        let had = |a: ActionId| mirror.log().entries().any(|e| e.action == a);
        let aborts = (delta.statuses.iter())
            .filter(|(a, o)| gc && *o == ActionOutcome::Aborted && had(*a))
            .count();
        let checkpoint = mirror.log().checkpoint().cloned();
        if full_log {
            *mirror = VersionedLog::with_gc(gc);
            mirror.apply_delta(&LogDelta {
                full: true,
                ..delta.clone()
            });
            self.view.replace(site, delta);
            self.paths[4] += 1;
        } else {
            let applied = mirror.apply_delta(delta);
            prop_assert_eq!(self.view.advance(site, delta), applied);
            let adopted = mirror.log().checkpoint() != checkpoint.as_ref();
            self.paths[0] += u32::from(delta.full);
            self.paths[1] += u32::from(adopted && !delta.full);
            self.paths[2] += aborts as u32;
            if !applied {
                return self.check_mirrors();
            }
        }
        self.check_mirrors()?;
        if !counted {
            return Ok(());
        }
        if self.round.is_empty() {
            let members: Vec<u32> = self.members.iter().copied().collect();
            let before = self.mirrors.len();
            (self.mirrors).retain(|s, _| *s == site || members.contains(s));
            self.paths[5] += (before - self.mirrors.len()) as u32;
            self.view.sync(site, &members);
            self.merged = ObjectLog::new();
        } else {
            self.view.join(site);
        }
        self.merged.merge(self.mirrors[&site].log());
        self.round.push(site);
        prop_assert_eq!(self.view.log(), &self.merged);
        prop_assert!(!self.view.log().gc_aborted());
        self.check_mirrors()
    }

    /// Forgets the mirror of `site`, as a refused write does.
    fn forget(&mut self, site: u32) -> Result<(), TestCaseError> {
        self.paths[3] += u32::from(self.mirrors.remove(&site).is_some());
        self.view.reset(site);
        self.check_mirrors()
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
        self.check_mirrors()?;
        for (s, site) in (0..).zip(sites.iter_mut()) {
            if self.silent == Some(s) {
                continue;
            }
            let held = self.mirrors.get(&s).filter(|m| m.version() > 0);
            let cut = self.view.cut(s);
            prop_assert_eq!(cut.is_some(), held.is_some());
            let (Some((cut, base)), Some(m)) = (cut, held) else {
                site.merge(self.view.log());
                continue;
            };
            prop_assert_eq!(&cut, &self.merged.minus(m.log()));
            prop_assert_eq!(base, m.version());
            if site.extends(base) {
                site.merge(&cut);
            } else {
                // Refused: the whole view goes, and the mirror is forgotten.
                site.merge(self.view.log());
                self.forget(s)?;
            }
        }
        Ok(())
    }
}

/// Runs one script against three sites; returns how often each path that
/// replaces what a mirror held ran ([`FrontEnd::paths`]).
fn run(script: &[(u8, u32, u32)], gc: bool) -> Result<[u32; 6], TestCaseError> {
    let mut sites: Vec<Log> = (0..3).map(|_| VersionedLog::with_gc(gc)).collect();
    let mut front = FrontEnd::new(gc);
    let mut next = 0;
    for &(op, s, arg) in script {
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
            // A status-GC fence: the reader's next reply is a full transfer.
            13 => {
                let stale: Vec<ActionId> = (site.log().statuses())
                    .map(|(a, _)| a)
                    .filter(|a| a.0 + 4 * arg < next && outcome(a.0).is_resolved())
                    .collect();
                site.gc_below(&stale);
            }
            // Compaction folds a committed prefix.
            14 => {
                let resolved = |a: u32| site.log().status(ActionId(a)).is_resolved();
                let upto = next.saturating_sub(4 * arg);
                if (0..upto).all(resolved) {
                    if let Some(cp) = checkpoint(upto) {
                        let newer =
                            (site.log().checkpoint()).is_none_or(|own| own.folded() < cp.folded());
                        if newer {
                            site.install_checkpoint(cp);
                        }
                    }
                }
            }
            // A read request, answered from the site as it is now.
            15..=19 => {
                let since = front.view.version(s);
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
                front.deliver(from, &delta, arg % 3 != 0, false)?;
            }
            // The round assembles and writes back.
            27..=29 => front.write(&mut sites, next.saturating_sub(arg + 3))?,
            // A refused write: the mirror is forgotten.
            30 => front.forget(s)?,
            // A site leaves the configuration, or rejoins it.
            31 if !front.members.remove(&s) => {
                front.members.insert(s);
            }
            // A site stops replying for the rest of the script.
            32 if front.silent.is_none() && arg % 4 == 0 => front.silent = Some(s),
            // A read under full-log shipping, answered and delivered.
            33 => {
                let delta = site.delta_since(0);
                front.deliver(s, &delta, arg % 3 != 0, true)?;
            }
            _ => {}
        }
    }
    Ok(front.paths)
}

proptest! {
    #[test]
    fn views_match_the_rebuilt_reference(
        script in proptest::collection::vec((0u8..34, 0u32..3, 0u32..24), 40..400),
        gc in 0u8..2,
    ) {
        run(&script, gc == 0)?;
    }
}

/// Seeded scripts under aborted-entry GC run every path that replaces what
/// a mirror held, each mirror staying equal to its reference throughout.
#[test]
fn every_path_that_replaces_a_mirror_runs() {
    let mut seen = [0; 6];
    for seed in 0..16u64 {
        let mut x = seed;
        let mut draw = |n: u64| {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (x >> 33) % n
        };
        let script: Vec<_> = (0..400)
            .map(|_| (draw(34) as u8, draw(3) as u32, draw(24) as u32))
            .collect();
        let paths = run(&script, true).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        for (n, p) in seen.iter_mut().zip(paths) {
            *n += p;
        }
    }
    assert!(seen.iter().all(|n| *n > 0), "paths run: {seen:?}");
}

/// A site that leaves the configuration takes its mirror out of the set
/// at the next round's start: however much the others' logs grow after,
/// the view stores its log and at most a round's own entry and fresh
/// entries beside it.
#[test]
fn a_departed_site_leaves_no_column_behind() {
    let mut sites: Vec<Log> = (0..3).map(|_| VersionedLog::with_gc(false)).collect();
    let mut front = FrontEnd::new(false);
    for round in 0..200u32 {
        if round == 10 {
            front.members.remove(&2);
        }
        for (s, site) in (0..).zip(sites.iter_mut()) {
            if round < 10 || s < 2 {
                site.insert(entry(3 * round + s));
            }
        }
        for (s, site) in (0..).zip(&sites) {
            if front.members.contains(&s) {
                let delta = site.delta_since(front.view.version(s));
                front
                    .deliver(s, &delta, true, false)
                    .expect("a matching view");
            }
        }
        front.write(&mut sites, 0).expect("a matching view");
        let fresh = front.view.entries_held() - front.view.log().len();
        assert!(fresh <= 4, "round {round}: {fresh} entries in doubt");
    }
    assert!(front.view.sites().eq([0, 1]));
}
