//! Online quorum reconfiguration: epoch-stamped configurations installed
//! through a **joint phase**, in the style of joint consensus.
//!
//! A [`Config`] names an epoch, a repository membership, and a per-class
//! [`ThresholdAssignment`] over that membership. The cluster's view of
//! "which quorums count" is a [`ConfigState`]: either one stable config,
//! or — while a view change is in flight — a *joint* state in which every
//! operation must assemble quorums satisfying **both** the old and the new
//! config. Configuration states are totally ordered by
//! [`ConfigState::version`] (`2·epoch` for the joint state of `epoch`,
//! `2·epoch + 1` once stable), and every data message carries the version
//! its sender believed current; repositories refuse older versions and
//! push the current state back, making stale front-ends abort with
//! [`ReplicationError::StaleEpoch`] semantics and retry under the adopted
//! configuration.
//!
//! Safety is the paper's quorum-intersection condition held *across* the
//! boundary: because joint quorums satisfy the old thresholds, they
//! intersect every old-config quorum wherever the dependency relation
//! demands it — and symmetrically for the new side — so no epoch boundary
//! ever separates two constrained operations onto disjoint quorums. The
//! property tests materialize the quorum sets of adjacent configuration
//! states and check `always_intersects` for every constrained pair.
//!
//! The coordinator is a [`Reconfigurer`] process: it installs the joint
//! state on the union membership, waits for majority acknowledgements
//! from *both* memberships, then installs the stable state and declares
//! the epoch committed once a majority of the new membership acknowledges.
//! Repositories that adopt a stable install push their logs to the new
//! membership (install-triggered anti-entropy), migrating state to any
//! freshly added member.

use crate::driver::Io;
use crate::error::ReplicationError;
use crate::messages::Msg;
use crate::types::{ObjId, ShardMap};
use quorumcc_core::DependencyRelation;
use quorumcc_model::{Classified, EventClass};
use quorumcc_quorum::{QuorumSet, SiteSet, ThresholdAssignment};
use quorumcc_sim::trace::TraceAction;
use quorumcc_sim::{ProcId, SimTime};
use std::collections::BTreeSet;
use std::fmt;
use std::marker::PhantomData;

/// One epoch's configuration: who the repositories are and what the
/// quorum thresholds over them are.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Config {
    /// The epoch number (0 is the bootstrap configuration).
    pub epoch: u64,
    /// Member repository process ids, ascending.
    pub members: Vec<ProcId>,
    /// Threshold assignment over `members.len()` sites.
    pub thresholds: ThresholdAssignment,
}

impl Config {
    /// Builds a configuration, sorting and deduplicating the members.
    pub fn new(
        epoch: u64,
        members: impl IntoIterator<Item = ProcId>,
        ta: ThresholdAssignment,
    ) -> Self {
        let mut members: Vec<ProcId> = members.into_iter().collect();
        members.sort_unstable();
        members.dedup();
        Config {
            epoch,
            members,
            thresholds: ta,
        }
    }

    /// Checks internal consistency and the dependency-relation constraints.
    ///
    /// # Errors
    ///
    /// [`ReplicationError::InvalidReconfig`] when the membership is empty
    /// or does not match the threshold site count, and
    /// [`ReplicationError::InvalidThresholds`] when `ti + tf ≤ n` for some
    /// constrained pair.
    pub fn validate(&self, rel: &DependencyRelation) -> Result<(), ReplicationError> {
        if self.members.is_empty() {
            return Err(ReplicationError::InvalidReconfig(format!(
                "epoch {}: empty membership",
                self.epoch
            )));
        }
        if self.thresholds.sites() as usize != self.members.len() {
            return Err(ReplicationError::InvalidReconfig(format!(
                "epoch {}: thresholds cover {} sites but membership has {}",
                self.epoch,
                self.thresholds.sites(),
                self.members.len()
            )));
        }
        self.thresholds
            .validate(rel)
            .map_err(|e| ReplicationError::InvalidThresholds(e.to_string()))
    }

    /// How many members of this config are in `who`.
    fn count_in(&self, who: &BTreeSet<ProcId>) -> u32 {
        self.members.iter().filter(|m| who.contains(m)).count() as u32
    }

    /// Whether `who` contains an initial quorum for `op`.
    pub fn initial_ok(&self, op: &str, who: &BTreeSet<ProcId>) -> bool {
        self.count_in(who) >= self.thresholds.initial(op)
    }

    /// Whether `who` contains a final quorum for `ev`.
    pub fn final_ok(&self, ev: EventClass, who: &BTreeSet<ProcId>) -> bool {
        self.count_in(who) >= self.thresholds.final_of(ev)
    }

    /// A strict majority of the membership — the quorum rule for
    /// *installing* configurations (decoupled from the per-class data
    /// thresholds, so an epoch can commit even when a data quorum is
    /// unassemblable under the old assignment).
    pub fn majority(&self) -> u32 {
        self.members.len() as u32 / 2 + 1
    }

    /// The membership as a [`SiteSet`] (members must be < 64).
    pub fn member_set(&self) -> SiteSet {
        SiteSet::from_ids(self.members.iter().map(|m| *m as u8))
    }

    /// Materializes the initial quorum set of `op` over the universe
    /// `{0..universe}`: every subset containing ≥ `ti(op)` members.
    ///
    /// # Panics
    ///
    /// Panics if `universe > 16` (exhaustive enumeration).
    pub fn initial_quorums(&self, op: &str, universe: u8) -> QuorumSet {
        self.quorums_of(self.thresholds.initial(op), universe)
    }

    /// Materializes the final quorum set of `ev` over `{0..universe}`.
    ///
    /// # Panics
    ///
    /// Panics if `universe > 16`.
    pub fn final_quorums(&self, ev: EventClass, universe: u8) -> QuorumSet {
        self.quorums_of(self.thresholds.final_of(ev), universe)
    }

    fn quorums_of(&self, t: u32, universe: u8) -> QuorumSet {
        assert!(universe <= 16, "materialized quorums limited to 16 sites");
        let members = self.member_set();
        let mut qs = Vec::new();
        for mask in 0u64..(1 << universe) {
            let s = SiteSet::from_mask(mask);
            if s.intersection(members).len() as u32 >= t {
                qs.push(s);
            }
        }
        QuorumSet::from_quorums(qs)
    }
}

impl fmt::Display for Config {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "epoch {} members {}", self.epoch, self.member_set())
    }
}

/// The cluster's current notion of which quorums count: one stable
/// configuration, or the joint state of a view change in flight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigState {
    /// One configuration governs.
    Stable(Config),
    /// A view change is in flight: quorums must satisfy **both**.
    Joint {
        /// The outgoing configuration.
        old: Config,
        /// The incoming configuration.
        new: Config,
    },
}

impl ConfigState {
    /// The bootstrap state: epoch 0, stable.
    pub fn bootstrap(members: impl IntoIterator<Item = ProcId>, ta: ThresholdAssignment) -> Self {
        ConfigState::Stable(Config::new(0, members, ta))
    }

    /// The governing epoch (the *new* epoch while joint).
    pub fn epoch(&self) -> u64 {
        match self {
            ConfigState::Stable(c) => c.epoch,
            ConfigState::Joint { new, .. } => new.epoch,
        }
    }

    /// Total-order version: `2·epoch` for the joint state installing
    /// `epoch`, `2·epoch + 1` once stable. Strictly increases along
    /// `Stable(e) → Joint{…, e+1} → Stable(e+1)`.
    pub fn version(&self) -> u64 {
        match self {
            ConfigState::Stable(c) => 2 * c.epoch + 1,
            ConfigState::Joint { new, .. } => 2 * new.epoch,
        }
    }

    /// Checks an operation's carried version against this state.
    ///
    /// # Errors
    ///
    /// [`ReplicationError::StaleEpoch`] when `seen` is older than the
    /// current version — the operation must abort and retry under the
    /// current configuration.
    pub fn admit(&self, seen: u64) -> Result<(), ReplicationError> {
        if seen < self.version() {
            Err(ReplicationError::StaleEpoch {
                seen,
                current: self.version(),
            })
        } else {
            Ok(())
        }
    }

    /// The repositories an operation contacts: the membership, or the
    /// union of both memberships while joint.
    pub fn members(&self) -> Vec<ProcId> {
        let mut m: Vec<ProcId> = (self.configs())
            .flat_map(|c| c.members.iter().copied())
            .collect();
        m.sort_unstable();
        m.dedup();
        m
    }

    /// The active configurations: one, or both while joint. Every quorum
    /// question below is asked of each.
    fn configs(&self) -> impl Iterator<Item = &Config> {
        match self {
            ConfigState::Stable(c) => [Some(c), None],
            ConfigState::Joint { old, new } => [Some(old), Some(new)],
        }
        .into_iter()
        .flatten()
    }

    /// Whether `who` contains an initial quorum for `op` under every
    /// active configuration.
    pub fn initial_ok(&self, op: &str, who: &BTreeSet<ProcId>) -> bool {
        self.configs().all(|c| c.initial_ok(op, who))
    }

    /// Whether `who` contains a final quorum for `ev` under every active
    /// configuration.
    pub fn final_ok(&self, ev: EventClass, who: &BTreeSet<ProcId>) -> bool {
        self.configs().all(|c| c.final_ok(ev, who))
    }

    /// The largest initial threshold for `op` across active configs (used
    /// to size narrow fan-outs).
    pub fn max_initial(&self, op: &str) -> u32 {
        let initial = |c: &Config| c.thresholds.initial(op);
        self.configs().map(initial).max().expect("one at least")
    }

    /// The largest final threshold for `ev` across active configs (0
    /// means the write phase completes immediately).
    pub fn max_final(&self, ev: EventClass) -> u32 {
        let final_of = |c: &Config| c.thresholds.final_of(ev);
        self.configs().map(final_of).max().expect("one at least")
    }

    /// Materializes the initial quorum set of `op`: while joint, a set
    /// qualifies iff it contains an initial quorum of **both** configs.
    ///
    /// # Panics
    ///
    /// Panics if `universe > 16`.
    pub fn initial_quorums(&self, op: &str, universe: u8) -> QuorumSet {
        let each = self.configs().map(|c| c.initial_quorums(op, universe));
        each.reduce(|both, q| intersect_requirements(&both, &q))
            .expect("one at least")
    }

    /// Materializes the final quorum set of `ev` (joint = both).
    ///
    /// # Panics
    ///
    /// Panics if `universe > 16`.
    pub fn final_quorums(&self, ev: EventClass, universe: u8) -> QuorumSet {
        let each = self.configs().map(|c| c.final_quorums(ev, universe));
        each.reduce(|both, q| intersect_requirements(&both, &q))
            .expect("one at least")
    }
}

impl fmt::Display for ConfigState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigState::Stable(c) => write!(f, "stable[{c}]"),
            ConfigState::Joint { old, new } => write!(f, "joint[{old} -> {new}]"),
        }
    }
}

/// Per-shard quorum maps: one [`ConfigState`] per shard of the object
/// space, routed by the static [`ShardMap`].
///
/// Soundness: conflict detection is per-object and every object lives in
/// exactly one shard, so the quorum-intersection requirement
/// (`ti + tf > n`, and the §4 co-quorum constraints) only has to hold
/// *within* each shard — two operations on objects of different shards
/// never need intersecting quorums. Each shard may therefore carry its
/// own threshold assignment (e.g. read-heavy shards with small initial
/// quorums), while membership and epoch numbering stay global:
/// reconfiguration installs apply to every shard, so all shards agree on
/// the configuration version an operation must carry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardedConfig {
    map: ShardMap,
    states: Vec<ConfigState>,
}

impl ShardedConfig {
    /// Every shard governed by the same state (the unsharded degenerate
    /// case when `shards == 1`).
    pub fn uniform(shards: u16, state: ConfigState) -> Self {
        let shards = shards.max(1);
        ShardedConfig {
            map: ShardMap::new(shards),
            states: vec![state; shards as usize],
        }
    }

    /// One explicit state per shard (`states` must be non-empty).
    pub fn from_states(states: Vec<ConfigState>) -> Self {
        assert!(!states.is_empty(), "at least one shard state");
        ShardedConfig {
            map: ShardMap::new(states.len() as u16),
            states,
        }
    }

    /// The object→shard partition.
    pub fn map(&self) -> ShardMap {
        self.map
    }

    /// Number of shards.
    pub fn shards(&self) -> u16 {
        self.map.count()
    }

    /// The quorum map governing `obj`'s shard.
    pub fn state(&self, obj: ObjId) -> &ConfigState {
        &self.states[self.map.of(obj).0 as usize]
    }

    /// Adopts an installed state into every shard it is newer than,
    /// returning whether anything changed. Installs are global (the
    /// reconfiguration planner is shard-agnostic), so a successful adopt
    /// leaves every shard at the installed version — per-shard threshold
    /// assignments are a bootstrap-time property that a reconfiguration
    /// replaces.
    pub fn adopt(&mut self, state: &ConfigState) -> bool {
        let mut changed = false;
        for s in &mut self.states {
            if state.version() > s.version() {
                *s = state.clone();
                changed = true;
            }
        }
        changed
    }

    /// The highest version any shard holds (shards only disagree
    /// transiently, while an adopt is being applied).
    pub fn version(&self) -> u64 {
        self.states.iter().map(|s| s.version()).max().unwrap_or(1)
    }
}

/// Sets satisfying both requirement families: the antichain of pairwise
/// unions.
fn intersect_requirements(a: &QuorumSet, b: &QuorumSet) -> QuorumSet {
    let mut out = QuorumSet::new();
    for qa in a.quorums() {
        for qb in b.quorums() {
            out.insert(qa.union(*qb));
        }
    }
    out
}

/// When (and to what) the cluster reconfigures during a run.
#[derive(Debug, Clone, Default)]
pub enum ReconfigPolicy {
    /// Never reconfigure (the pre-reconfiguration behavior).
    #[default]
    None,
    /// Install the given configurations at the given times (ascending;
    /// epochs must increase from 1).
    Manual(Vec<(SimTime, Config)>),
    /// Derive the schedule from the fault plan: `detect_delay` ticks
    /// after a crash begins, replan over the surviving sites with the
    /// availability planner, prioritizing `priority` classes.
    Reactive {
        /// Ticks between a crash starting and the replan triggering
        /// (models failure detection).
        detect_delay: SimTime,
        /// Operation classes the planner favors, most important first.
        priority: Vec<&'static str>,
    },
    /// Reactive shrink *plus* grow-epoch rejoin: crashed sites are ejected
    /// like [`ReconfigPolicy::Reactive`], and a site that recovers is
    /// re-admitted through a further install once it has been observed up
    /// for `clean_heartbeats` consecutive heartbeat intervals (hysteresis:
    /// a flapping site never thrashes the epoch machinery). Install-
    /// triggered anti-entropy ships the logs to the rejoining member
    /// before its acks count toward data quorums, so catch-up precedes
    /// participation.
    SelfHealing {
        /// Ticks between a crash starting and the shrink triggering.
        detect_delay: SimTime,
        /// Heartbeat probe interval for the rejoin hysteresis.
        heartbeat: SimTime,
        /// Consecutive clean heartbeats a recovered site must show before
        /// the grow install fires.
        clean_heartbeats: u32,
        /// Operation classes the planner favors, most important first.
        priority: Vec<&'static str>,
    },
}

/// One committed view change, harvested into the run report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReconfigRecord {
    /// The installed epoch.
    pub epoch: u64,
    /// When the joint phase began.
    pub started: SimTime,
    /// When the stable install was acknowledged by a majority of the new
    /// membership.
    pub committed: SimTime,
    /// The installed membership, ascending — lets the harvest distinguish
    /// shrink installs from grow-epoch rejoins.
    pub members: Vec<ProcId>,
}

/// Timer token that checks whether a scheduled install is due.
const TOKEN_DUE: u64 = 0;
/// Install request ids live far above any schedule-kick token.
const REQ_BASE: u64 = 1 << 32;

#[derive(Debug, Clone)]
struct InFlight {
    state: ConfigState,
    req: u64,
    acks: BTreeSet<ProcId>,
    started: SimTime,
}

/// The view-change coordinator: a dedicated process that walks a schedule
/// of configurations, installing each via the joint phase.
#[derive(Debug, Clone)]
pub struct Reconfigurer<S: Classified> {
    schedule: Vec<(SimTime, Config)>,
    current: Config,
    next_idx: usize,
    active: Option<InFlight>,
    req_counter: u64,
    op_timeout: SimTime,
    records: Vec<ReconfigRecord>,
    _type: PhantomData<fn() -> S>,
}

impl<S: Classified> Reconfigurer<S> {
    /// A coordinator starting from `initial` (epoch 0) and installing
    /// `schedule` in order, re-broadcasting installs every `op_timeout`.
    pub fn new(initial: Config, schedule: Vec<(SimTime, Config)>, op_timeout: SimTime) -> Self {
        Reconfigurer {
            schedule,
            current: initial,
            next_idx: 0,
            active: None,
            req_counter: REQ_BASE,
            op_timeout: op_timeout.max(1),
            records: Vec::new(),
            _type: PhantomData,
        }
    }

    /// The view changes committed so far.
    pub fn records(&self) -> &[ReconfigRecord] {
        &self.records
    }

    /// Arms one due-check timer per scheduled install.
    pub fn start<IO: Io<Msg<S::Inv, S::Res>> + ?Sized>(&mut self, ctx: &mut IO) {
        for (t, _) in &self.schedule {
            ctx.set_timer((*t).max(1), TOKEN_DUE);
        }
    }

    fn broadcast_install<IO: Io<Msg<S::Inv, S::Res>> + ?Sized>(&mut self, ctx: &mut IO) {
        let Some(inflight) = &self.active else { return };
        let (req, state) = (inflight.req, inflight.state.clone());
        for r in state.members() {
            if !inflight.acks.contains(&r) {
                ctx.send(
                    r,
                    Msg::Install {
                        req,
                        state: state.clone(),
                    },
                );
            }
        }
        ctx.set_timer(self.op_timeout, req);
    }

    fn begin_joint<IO: Io<Msg<S::Inv, S::Res>> + ?Sized>(&mut self, ctx: &mut IO) {
        let next = self.schedule[self.next_idx].1.clone();
        ctx.trace(TraceAction::ReconfigStart { epoch: next.epoch });
        self.req_counter += 1;
        self.active = Some(InFlight {
            state: ConfigState::Joint {
                old: self.current.clone(),
                new: next,
            },
            req: self.req_counter,
            acks: BTreeSet::new(),
            started: ctx.now(),
        });
        self.broadcast_install(ctx);
    }

    fn begin_stable<IO: Io<Msg<S::Inv, S::Res>> + ?Sized>(
        &mut self,
        ctx: &mut IO,
        started: SimTime,
    ) {
        let next = self.schedule[self.next_idx].1.clone();
        self.req_counter += 1;
        self.active = Some(InFlight {
            state: ConfigState::Stable(next),
            req: self.req_counter,
            acks: BTreeSet::new(),
            started,
        });
        self.broadcast_install(ctx);
    }

    /// Whether the in-flight install has gathered enough acknowledgements:
    /// majorities of **both** memberships for the joint state, a majority
    /// of the new membership for the stable state (the old side already
    /// acknowledged the joint state; stragglers keep receiving the
    /// broadcast until they ack or the next install supersedes it).
    fn acked(inflight: &InFlight) -> bool {
        match &inflight.state {
            ConfigState::Joint { old, new } => {
                old.count_in(&inflight.acks) >= old.majority()
                    && new.count_in(&inflight.acks) >= new.majority()
            }
            ConfigState::Stable(c) => c.count_in(&inflight.acks) >= c.majority(),
        }
    }

    /// Handles one delivered message (only `InstallAck` matters).
    pub fn handle<IO: Io<Msg<S::Inv, S::Res>> + ?Sized>(
        &mut self,
        ctx: &mut IO,
        from: ProcId,
        msg: Msg<S::Inv, S::Res>,
    ) {
        let Msg::InstallAck { req, .. } = msg else {
            return;
        };
        let Some(inflight) = &mut self.active else {
            return;
        };
        if inflight.req != req {
            return; // stale ack
        }
        inflight.acks.insert(from);
        if !Self::acked(inflight) {
            return;
        }
        let started = inflight.started;
        match inflight.state.clone() {
            ConfigState::Joint { .. } => self.begin_stable(ctx, started),
            ConfigState::Stable(c) => {
                ctx.trace(TraceAction::ReconfigCommit { epoch: c.epoch });
                self.records.push(ReconfigRecord {
                    epoch: c.epoch,
                    started,
                    committed: ctx.now(),
                    members: c.members.clone(),
                });
                self.current = c;
                self.active = None;
                self.next_idx += 1;
                // A later install already due? Its TOKEN_DUE timer may
                // have fired while this one was in flight.
                if self
                    .schedule
                    .get(self.next_idx)
                    .is_some_and(|(t, _)| *t <= ctx.now())
                {
                    self.begin_joint(ctx);
                }
            }
        }
    }

    /// Handles a timer: due-checks and install re-broadcasts.
    pub fn tick<IO: Io<Msg<S::Inv, S::Res>> + ?Sized>(&mut self, ctx: &mut IO, token: u64) {
        if token == TOKEN_DUE {
            if self.active.is_none()
                && self
                    .schedule
                    .get(self.next_idx)
                    .is_some_and(|(t, _)| *t <= ctx.now())
            {
                self.begin_joint(ctx);
            }
            return;
        }
        if self.active.as_ref().is_some_and(|i| i.req == token) {
            self.broadcast_install(ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quorumcc_core::certificates::prom_hybrid_relation;

    fn ec(op: &'static str, res: &'static str) -> EventClass {
        EventClass::new(op, res)
    }

    fn ta(
        n: u32,
        pairs: &[(&'static str, u32)],
        finals: &[(EventClass, u32)],
    ) -> ThresholdAssignment {
        let mut t = ThresholdAssignment::new(n);
        for (op, v) in pairs {
            t.set_initial(op, *v);
        }
        for (e, v) in finals {
            t.set_final(*e, *v);
        }
        t
    }

    fn majority_cfg(epoch: u64, members: &[ProcId]) -> Config {
        let n = members.len() as u32;
        let maj = n / 2 + 1;
        let t = ta(
            n,
            &[("Read", maj), ("Write", maj), ("Seal", maj)],
            &[
                (ec("Write", "Ok"), maj),
                (ec("Write", "Disabled"), maj),
                (ec("Read", "Ok"), maj),
                (ec("Read", "Disabled"), maj),
                (ec("Seal", "Ok"), maj),
            ],
        );
        Config::new(epoch, members.iter().copied(), t)
    }

    #[test]
    fn versions_strictly_increase_across_the_transition() {
        let old = majority_cfg(0, &[0, 1, 2]);
        let new = majority_cfg(1, &[0, 1, 3]);
        let s0 = ConfigState::Stable(old.clone());
        let joint = ConfigState::Joint {
            old,
            new: new.clone(),
        };
        let s1 = ConfigState::Stable(new);
        assert!(s0.version() < joint.version());
        assert!(joint.version() < s1.version());
        assert_eq!(s0.version(), 1);
        assert_eq!(joint.version(), 2);
        assert_eq!(s1.version(), 3);
    }

    #[test]
    fn admit_rejects_older_versions_only() {
        let s = ConfigState::Stable(majority_cfg(2, &[0, 1, 2]));
        assert_eq!(s.version(), 5);
        let err = s.admit(4).unwrap_err();
        assert_eq!(
            err,
            ReplicationError::StaleEpoch {
                seen: 4,
                current: 5
            }
        );
        assert!(err.to_string().contains("stale"));
        assert!(s.admit(5).is_ok());
        assert!(s.admit(6).is_ok());
    }

    #[test]
    fn joint_quorum_counting_requires_both_sides() {
        let old = majority_cfg(0, &[0, 1, 2]); // majority 2
        let new = majority_cfg(1, &[2, 3, 4]); // majority 2
        let joint = ConfigState::Joint { old, new };
        let who = |ids: &[ProcId]| ids.iter().copied().collect::<BTreeSet<_>>();
        // {0,1} is a quorum of old only.
        assert!(!joint.initial_ok("Read", &who(&[0, 1])));
        // {3,4} is a quorum of new only.
        assert!(!joint.initial_ok("Read", &who(&[3, 4])));
        // {1,2,3}: two in each membership (2 shared).
        assert!(joint.initial_ok("Read", &who(&[1, 2, 3])));
        assert!(joint.final_ok(ec("Write", "Ok"), &who(&[0, 2, 3])));
        assert_eq!(joint.members(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn joint_quorums_intersect_both_generations() {
        // The epoch-safety core: materialized joint quorum sets intersect
        // every constrained quorum set of both adjacent stable states.
        let rel = prom_hybrid_relation();
        let old = Config::new(0, 0..5, prom_opt(&rel, 5));
        let new = Config::new(1, 0..4, prom_opt(&rel, 4));
        let joint = ConfigState::Joint {
            old: old.clone(),
            new: new.clone(),
        };
        let universe = 5u8;
        for (inv, ev) in rel.iter() {
            let ji = joint.initial_quorums(inv, universe);
            let jf = joint.final_quorums(*ev, universe);
            for side in [&old, &new] {
                assert!(
                    ji.always_intersects(&side.final_quorums(*ev, universe)),
                    "joint initial({inv}) vs epoch {} final({ev})",
                    side.epoch
                );
                assert!(
                    side.initial_quorums(inv, universe).always_intersects(&jf),
                    "epoch {} initial({inv}) vs joint final({ev})",
                    side.epoch
                );
            }
            assert!(ji.always_intersects(&jf), "joint vs joint for {inv} ≥ {ev}");
        }
    }

    fn prom_opt(rel: &DependencyRelation, n: u32) -> ThresholdAssignment {
        let ops = ["Write", "Read", "Seal"];
        let evs = [
            ec("Write", "Ok"),
            ec("Write", "Disabled"),
            ec("Read", "Ok"),
            ec("Read", "Disabled"),
            ec("Seal", "Ok"),
        ];
        quorumcc_quorum::optimize(rel, n, &ops, &evs, &["Read", "Write", "Seal"]).unwrap()
    }

    #[test]
    fn validate_catches_mismatched_membership() {
        let c = Config::new(1, 0..3, ThresholdAssignment::new(4));
        let err = c.validate(&DependencyRelation::new()).unwrap_err();
        assert!(matches!(err, ReplicationError::InvalidReconfig(_)));
        assert!(err.to_string().contains("4 sites"));
        let empty = Config::new(1, std::iter::empty(), ThresholdAssignment::new(0));
        assert!(matches!(
            empty.validate(&DependencyRelation::new()),
            Err(ReplicationError::InvalidReconfig(_))
        ));
    }

    #[test]
    fn members_are_sorted_and_deduplicated() {
        let c = Config::new(1, [4, 0, 4, 2], ThresholdAssignment::new(3));
        assert_eq!(c.members, vec![0, 2, 4]);
        assert_eq!(c.majority(), 2);
        assert_eq!(c.to_string(), "epoch 1 members {s0,s2,s4}");
    }
}
