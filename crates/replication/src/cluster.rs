//! Cluster assembly: repositories + clients under any host, one call to
//! run a workload and harvest histories, statistics, telemetry, and
//! (optionally) a structured trace.
//!
//! The entry point is [`RunBuilder`], which groups the run's knobs into
//! cohesive configs: [`NetworkConfig`], [`FaultPlan`], [`ProtocolConfig`]
//! (protocol + timeout/retry/commit knobs), [`TuningConfig`] (client and
//! repository pacing), [`TraceConfig`], and [`ReconfigPolicy`] (online
//! quorum reconfiguration).

use crate::client::{Client, ClientConfig, ClientStats, Fanout, Record, Transaction};
use crate::error::ReplicationError;
use crate::history;
use crate::messages::Msg;
use crate::metrics::RunTelemetry;
use crate::protocol::Protocol;
use crate::reconfig::{Config, ConfigState, ReconfigPolicy, ReconfigRecord, Reconfigurer};
use crate::repository::{Durability, RepoCounters, Repository};
use crate::types::{CompactionConfig, ObjId, ObjectLog, ACTION_SPAN};
use quorumcc_model::spec::ExploreBounds;
use quorumcc_model::{BHistory, Classified, Enumerable};
use quorumcc_quorum::{planner, SiteSet, ThresholdAssignment};
use quorumcc_sim::{
    Driver, FaultPlan, Input, Io, NetworkConfig, ProcId, Sim, SimStats, SimTime, TraceBuffer,
    TraceConfig,
};
use std::collections::BTreeSet;

/// A node in the cluster: repository, client, or the reconfiguration
/// coordinator.
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)]
pub enum Node<S: Classified> {
    /// A storage site.
    Repo(Repository<S>),
    /// A client with its embedded front-end.
    Client(Client<S>),
    /// The view-change coordinator (present only when a
    /// [`ReconfigPolicy`] yields a non-empty schedule).
    Reconfig(Reconfigurer<S>),
}

/// A whole node is one sans-I/O [`Driver`]: every host — the explorer
/// and the one stepping loop ([`crate::host::run`]), simulated or over
/// sockets — feeds it the same [`Input`] alphabet and receives effects
/// through the same [`Io`] surface.
impl<S: Classified> Driver<Msg<S::Inv, S::Res>> for Node<S> {
    #[inline]
    fn handle<IO: Io<Msg<S::Inv, S::Res>> + ?Sized>(
        &mut self,
        io: &mut IO,
        input: Input<Msg<S::Inv, S::Res>>,
    ) {
        match input {
            Input::Start => match self {
                Node::Client(c) => c.start(io),
                Node::Repo(r) => r.start(io),
                Node::Reconfig(r) => r.start(io),
            },
            Input::Deliver { from, msg } => match self {
                Node::Repo(r) => r.handle(io, from, msg),
                Node::Client(c) => c.handle(io, from, msg),
                Node::Reconfig(r) => r.handle(io, from, msg),
            },
            Input::Timer { token } => match self {
                Node::Client(c) => c.tick(io, token),
                Node::Repo(r) => r.tick(io, token),
                Node::Reconfig(r) => r.tick(io, token),
            },
            // Only repositories model storage durability; clients and the
            // reconfigurer are the application side, outside the failure
            // model.
            Input::Recover => {
                if let Node::Repo(r) = self {
                    r.on_recover(io);
                }
            }
        }
    }

    fn is_done(&self) -> bool {
        matches!(self, Node::Client(c) if c.is_done())
    }
}

/// The concurrency-control side of a run: which protocol, and the knobs
/// that govern how its transactions pace themselves.
#[derive(Debug, Clone)]
pub struct ProtocolConfig {
    /// The concurrency-control protocol (mode + dependency relation).
    pub protocol: Protocol,
    /// Per-quorum-phase timeout before a re-broadcast.
    pub op_timeout: SimTime,
    /// How many times an aborted transaction is re-run (fresh action each
    /// time).
    pub txn_retries: u32,
    /// Delay between the last operation and the commit decision (models
    /// atomic-commitment latency; 0 = commit immediately).
    pub commit_delay: SimTime,
}

impl ProtocolConfig {
    /// A config for `protocol` with the default pacing (timeout 120,
    /// no transaction retries, immediate commit).
    pub fn new(protocol: Protocol) -> Self {
        ProtocolConfig {
            protocol,
            op_timeout: 120,
            txn_retries: 0,
            commit_delay: 0,
        }
    }

    /// Sets the per-phase timeout.
    pub fn op_timeout(mut self, t: SimTime) -> Self {
        self.op_timeout = t;
        self
    }

    /// Sets how many times an aborted transaction is re-run.
    pub fn txn_retries(mut self, r: u32) -> Self {
        self.txn_retries = r;
        self
    }

    /// Sets the commit-decision delay.
    pub fn commit_delay(mut self, d: SimTime) -> Self {
        self.commit_delay = d;
        self
    }
}

/// Client and repository pacing knobs, orthogonal to the protocol.
///
/// Every setter overwrites exactly one field, so setters commute — the
/// builder surface has no order-dependent interactions (asserted by a
/// unit test).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TuningConfig {
    /// Idle time between transactions.
    pub think_time: SimTime,
    /// Phase re-broadcasts before declaring the quorum unavailable.
    pub max_phase_retries: u32,
    /// Quorum fan-out policy.
    pub fanout: Fanout,
    /// Whether final-quorum writes carry the whole merged view (§3.2's
    /// algorithm) or only the fresh entry (ablation).
    pub propagate_views: bool,
    /// Periodic repository anti-entropy (log gossip) interval, if any.
    ///
    /// The gossip timers keep the event queue non-empty, so the run lasts
    /// until `max_time` — set that explicitly (a few thousand ticks)
    /// rather than relying on quiescence.
    pub anti_entropy: Option<SimTime>,
    /// Delta log shipping: `LogReply` carries only the suffix past the
    /// client's per-site frontier instead of the whole log. On by default;
    /// disable for the full-clone shipping baseline.
    pub delta_shipping: bool,
    /// Committed-prefix compaction on repositories (and aborted-entry GC
    /// on client mirrors), when set. `None` (default) keeps raw logs
    /// forever.
    pub compaction: Option<CompactionConfig>,
    /// Repository storage durability class (default
    /// [`Durability::Stable`]). Volatile repositories discard in-memory
    /// state on crash and recover from their write-ahead mirror (if kept)
    /// plus peer state transfer.
    pub durability: Durability,
    /// Test-only: weaken every initial-quorum check by one phantom reply
    /// (the safety oracle's self-test). Never enable outside tests.
    #[doc(hidden)]
    pub weaken_read_quorum: bool,
    /// Test-only: complete every final-quorum write at send time, before
    /// any acknowledgment arrives (the oracle's second self-test). Never
    /// enable outside tests.
    #[doc(hidden)]
    pub skip_final_ack: bool,
    /// Shards the object space: object `o` belongs to shard `o mod shards`
    /// and quorum state (configuration, thresholds, log frontiers) is kept
    /// per shard. 1 (default) = the unsharded seed behavior.
    pub shards: u16,
    /// Op batching and pipelining degree: coalesces independent sends to
    /// one destination into a single envelope and lets a client keep this
    /// many disjoint-shard operations in flight. 1 (default) = the
    /// unbatched, strictly sequential seed behavior, byte-identical.
    pub batch: u32,
    /// Batch flush window in logical ticks. 0 (default) flushes at the end
    /// of every event handler; `w > 0` holds under-filled envelopes for up
    /// to `w` ticks so sends from later events can coalesce too.
    pub batch_window: SimTime,
    /// Scoped status shipping on repositories: resolutions are planted
    /// (and therefore shipped) only in logs the resolved action touched,
    /// instead of in every object's log. Off (default) = the full-table
    /// gossip baseline.
    pub scoped_statuses: bool,
    /// Status GC batch: when set, repositories acknowledge resolutions
    /// ([`Msg::ResolveAck`]), clients advance a durable resolution
    /// frontier piggybacked on reads, and repositories drop tombstones
    /// below it — sweeping once accumulated frontier advance reaches the
    /// batch (hysteresis: each sweep fences readers into one full
    /// transfer). `None` (default) keeps tombstones forever.
    pub status_gc: Option<u64>,
    /// Resolve retransmission period for clients (`None` = off). With
    /// status GC on, clients keep unacknowledged resolutions pending and
    /// re-send them to exactly the repositories whose `ResolveAck` is
    /// missing — the frontier-repair path that unsticks durable GC after
    /// a crash swallows an ack. Safe because resolution application is
    /// idempotent and repositories re-ack every receipt.
    pub resolve_retransmit: Option<SimTime>,
}

impl Default for TuningConfig {
    fn default() -> Self {
        TuningConfig {
            think_time: 5,
            max_phase_retries: 2,
            fanout: Fanout::Broadcast,
            propagate_views: true,
            anti_entropy: None,
            delta_shipping: true,
            compaction: None,
            durability: Durability::Stable,
            weaken_read_quorum: false,
            skip_final_ack: false,
            shards: 1,
            batch: 1,
            batch_window: 0,
            scoped_statuses: false,
            status_gc: None,
            resolve_retransmit: None,
        }
    }
}

impl TuningConfig {
    /// Sets the idle time between transactions.
    pub fn think_time(mut self, t: SimTime) -> Self {
        self.think_time = t;
        self
    }

    /// Sets the phase-retry budget.
    pub fn max_phase_retries(mut self, r: u32) -> Self {
        self.max_phase_retries = r;
        self
    }

    /// Selects the quorum fan-out policy.
    pub fn fanout(mut self, f: Fanout) -> Self {
        self.fanout = f;
        self
    }

    /// Disables view propagation on final-quorum writes (ablation).
    pub fn no_view_propagation(mut self) -> Self {
        self.propagate_views = false;
        self
    }

    /// Enables periodic repository anti-entropy every `interval` ticks.
    pub fn anti_entropy(mut self, interval: SimTime) -> Self {
        self.anti_entropy = Some(interval);
        self
    }

    /// Enables committed-prefix compaction with the default
    /// [`CompactionConfig`].
    pub fn compact_logs(self) -> Self {
        self.compaction(CompactionConfig::default())
    }

    /// Enables committed-prefix compaction with explicit knobs.
    pub fn compaction(mut self, cc: CompactionConfig) -> Self {
        self.compaction = Some(cc);
        self
    }

    /// Reverts to full-log `LogReply` payloads (the shipping baseline /
    /// ablation).
    pub fn full_log_shipping(mut self) -> Self {
        self.delta_shipping = false;
        self
    }

    /// Sets the repository storage durability class.
    pub fn durability(mut self, d: Durability) -> Self {
        self.durability = d;
        self
    }

    /// Test-only: weaken every initial-quorum check by one phantom reply,
    /// producing runs the safety oracle must flag (its self-test).
    #[doc(hidden)]
    pub fn unsound_weaken_read_quorum(mut self) -> Self {
        self.weaken_read_quorum = true;
        self
    }

    /// Test-only: commit final-quorum writes at send time, before any ack
    /// (the second planted bug for the oracle/explorer self-tests).
    #[doc(hidden)]
    pub fn unsound_skip_final_ack(mut self) -> Self {
        self.skip_final_ack = true;
        self
    }

    /// Shards the object space into `n` independent quorum domains
    /// (`n <= 1` = unsharded).
    pub fn shards(mut self, n: u16) -> Self {
        self.shards = n;
        self
    }

    /// Sets the op batching / pipelining degree (`b <= 1` = off).
    pub fn batch(mut self, b: u32) -> Self {
        self.batch = b;
        self
    }

    /// Sets the batch flush window in ticks (0 = flush every event).
    pub fn batch_window(mut self, w: SimTime) -> Self {
        self.batch_window = w;
        self
    }

    /// Enables scoped status shipping (resolutions planted only in logs
    /// the action touched).
    pub fn scoped_statuses(mut self) -> Self {
        self.scoped_statuses = true;
        self
    }

    /// Enables status GC with the given sweep batch (clamped to ≥ 1).
    pub fn status_gc(mut self, batch: u64) -> Self {
        self.status_gc = Some(batch.max(1));
        self
    }

    /// Enables client-side resolve retransmission (frontier repair) every
    /// `period` ticks (clamped to ≥ 1). Only meaningful with
    /// [`TuningConfig::status_gc`].
    pub fn resolve_retransmit(mut self, period: SimTime) -> Self {
        self.resolve_retransmit = Some(period.max(1));
        self
    }
}

/// Builder for a replicated cluster running one data type `S`.
///
/// # Example
///
/// ```
/// use quorumcc_replication::cluster::{ProtocolConfig, RunBuilder};
/// use quorumcc_replication::protocol::{Mode, Protocol};
/// use quorumcc_replication::client::Transaction;
/// use quorumcc_replication::types::ObjId;
/// use quorumcc_model::testtypes::{QInv, TestQueue};
/// use quorumcc_core::minimal_static_relation;
/// use quorumcc_model::spec::ExploreBounds;
///
/// let rel = minimal_static_relation::<TestQueue>(ExploreBounds {
///     depth: 4, ..ExploreBounds::default()
/// }).relation;
/// let report = RunBuilder::<TestQueue>::new(3)
///     .protocol(ProtocolConfig::new(Protocol::new(Mode::Hybrid, rel)))
///     .seed(1)
///     .workload(vec![vec![Transaction {
///         ops: vec![(ObjId(0), QInv::Enq(7)), (ObjId(0), QInv::Deq)],
///     }]])
///     .run()
///     .expect("valid configuration");
/// assert_eq!(report.stats().committed, 1);
/// assert_eq!(report.telemetry().committed, 1);
/// ```
#[derive(Debug)]
pub struct RunBuilder<S: Classified> {
    n_repos: u32,
    protocol: Option<ProtocolConfig>,
    thresholds: Option<ThresholdAssignment>,
    net: NetworkConfig,
    faults: FaultPlan,
    trace_cfg: TraceConfig,
    tuning: TuningConfig,
    seed: u64,
    max_time: SimTime,
    workload: Vec<Vec<Transaction<S::Inv>>>,
    reconfig: ReconfigPolicy,
    shard_thresholds: Vec<ThresholdAssignment>,
}

impl<S: Classified + Enumerable> RunBuilder<S> {
    /// Starts a builder for a cluster of `n_repos` repositories.
    pub fn new(n_repos: u32) -> Self {
        RunBuilder {
            n_repos,
            protocol: None,
            thresholds: None,
            net: NetworkConfig::default(),
            faults: FaultPlan::none(),
            trace_cfg: TraceConfig::disabled(),
            tuning: TuningConfig::default(),
            seed: 0,
            max_time: 1_000_000,
            workload: Vec::new(),
            reconfig: ReconfigPolicy::None,
            shard_thresholds: Vec::new(),
        }
    }

    /// Sets the concurrency-control configuration (required).
    pub fn protocol(mut self, p: ProtocolConfig) -> Self {
        self.protocol = Some(p);
        self
    }

    /// Sets quorum thresholds. Defaults to majorities everywhere
    /// (initial = final = ⌈(n+1)/2⌉), which satisfies every relation.
    pub fn thresholds(mut self, ta: ThresholdAssignment) -> Self {
        self.thresholds = Some(ta);
        self
    }

    /// Sets per-shard quorum thresholds (one assignment per shard, in
    /// shard order). Requires [`TuningConfig::shards`] to match the
    /// length; each shard's quorum intersection holds independently
    /// because conflicts are per-object and every object lives in exactly
    /// one shard.
    pub fn shard_thresholds(mut self, tas: Vec<ThresholdAssignment>) -> Self {
        self.shard_thresholds = tas;
        self
    }

    /// Sets network parameters.
    pub fn network(mut self, net: NetworkConfig) -> Self {
        self.net = net;
        self
    }

    /// Installs a fault plan.
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Sets the trace-capture policy (default: disabled, zero overhead).
    pub fn trace(mut self, cfg: TraceConfig) -> Self {
        self.trace_cfg = cfg;
        self
    }

    /// Sets the client/repository pacing knobs.
    pub fn tuning(mut self, tuning: TuningConfig) -> Self {
        self.tuning = tuning;
        self
    }

    /// Sets the run seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the simulation horizon.
    pub fn max_time(mut self, t: SimTime) -> Self {
        self.max_time = t;
        self
    }

    /// Sets the per-client transaction lists (one `Vec<Transaction>` per
    /// client; the number of clients is the outer length).
    pub fn workload(mut self, w: Vec<Vec<Transaction<S::Inv>>>) -> Self {
        self.workload = w;
        self
    }

    /// Sets the online-reconfiguration policy (default: never
    /// reconfigure). With a non-trivial policy a dedicated coordinator
    /// process installs each scheduled configuration through a joint
    /// phase; in-flight operations caught on the old epoch abort and
    /// retry for free under the new one.
    pub fn reconfig(mut self, policy: ReconfigPolicy) -> Self {
        self.reconfig = policy;
        self
    }

    /// Builds the cluster and runs it to quiescence (or `max_time`) under
    /// the deterministic simulator: the loop that serves sockets,
    /// [`crate::host::run`], over the in-memory [`crate::host::Loopback`]
    /// in virtual time.
    ///
    /// # Errors
    ///
    /// Everything [`RunBuilder::assemble`] refuses.
    pub fn run(self) -> Result<RunReport<S>, ReplicationError> {
        Ok(self.assemble()?.run())
    }

    /// Like [`RunBuilder::run`] but skips quorum validation — for
    /// experiments that *demonstrate* what goes wrong with too-small
    /// quorums.
    pub fn run_unchecked(self) -> Result<RunReport<S>, ReplicationError> {
        Ok(self.assemble_with(false)?.run())
    }

    /// Validates the configuration and builds the cluster without running
    /// it — the one way any host gets its drivers. The built-in hosts
    /// ([`RunBuilder::run`]'s simulator, the interleaving explorer) and
    /// external ones (`quorumcc_net`'s socket harness) all take
    /// [`Assembly::take_nodes`], step them, and read the result back with
    /// [`Assembly::harvest`].
    ///
    /// # Errors
    ///
    /// [`ReplicationError::MissingProtocol`] when no protocol was set,
    /// [`ReplicationError::EmptyWorkload`] when there are no transactions
    /// to run, [`ReplicationError::ActionSpaceExhausted`] when a client's
    /// worst-case action count or process id does not fit the action-id
    /// encoding, [`ReplicationError::InvalidNetwork`] when
    /// `min_delay > max_delay`,
    /// [`ReplicationError::InvalidChaosProfile`] when a network
    /// probability is outside `[0, 1]`,
    /// [`ReplicationError::InvalidReconfig`] for a malformed manual
    /// schedule, [`ReplicationError::InvalidFaultPlan`] when a fault
    /// window names a process outside the cluster or ends before it
    /// starts, and [`ReplicationError::InvalidThresholds`] when the
    /// quorum thresholds violate the protocol's dependency relation — an
    /// invalid assignment would silently produce non-atomic histories,
    /// which is precisely what the paper's constraints exist to prevent.
    /// (The negative tests bypass that last check via
    /// [`RunBuilder::run_unchecked`].)
    pub fn assemble(self) -> Result<Assembly<S>, ReplicationError> {
        self.assemble_with(true)
    }

    fn assemble_with(self, validate: bool) -> Result<Assembly<S>, ReplicationError> {
        if self.net.min_delay > self.net.max_delay {
            return Err(ReplicationError::InvalidNetwork {
                min_delay: self.net.min_delay,
                max_delay: self.net.max_delay,
            });
        }
        if !self.net.probabilities_valid() {
            return Err(ReplicationError::InvalidChaosProfile(format!(
                "drop_prob {} / dup_prob {} outside [0, 1]",
                self.net.drop_prob, self.net.dup_prob
            )));
        }
        let cc = self
            .protocol
            .clone()
            .ok_or(ReplicationError::MissingProtocol)?;
        if self.workload.iter().all(Vec::is_empty) {
            return Err(ReplicationError::EmptyWorkload);
        }
        // Status GC frontiers read the client back out of an action id, so
        // ids may neither spill into the next client's span nor wrap.
        for (i, txns) in self.workload.iter().enumerate() {
            let client = u64::from(self.n_repos) + i as u64;
            let actions = txns.len() as u64 * (1 + u64::from(cc.txn_retries));
            let span = u64::from(ACTION_SPAN);
            if actions > span || client * span + actions > u64::from(u32::MAX) + 1 {
                return Err(ReplicationError::ActionSpaceExhausted {
                    client: client.min(u64::from(u32::MAX)) as u32,
                    actions,
                });
            }
        }
        let thresholds = self.default_thresholds();
        let shards = self.tuning.shards.max(1);
        if !self.shard_thresholds.is_empty() && self.shard_thresholds.len() != shards as usize {
            return Err(ReplicationError::InvalidThresholds(format!(
                "shard_thresholds carries {} assignments for {shards} shards",
                self.shard_thresholds.len()
            )));
        }
        if validate {
            for ta in std::iter::once(&thresholds).chain(&self.shard_thresholds) {
                ta.validate(cc.protocol.rel())
                    .map_err(|e| ReplicationError::InvalidThresholds(e.to_string()))?;
            }
        }
        self.validate_reconfig(&cc)?;

        let repos: Vec<ProcId> = (0..self.n_repos).collect();
        let bootstrap = Config::new(0, repos.iter().copied(), thresholds.clone());
        let schedule = self.reconfig_schedule(&cc);
        let n_procs =
            self.n_repos as usize + self.workload.len() + usize::from(!schedule.is_empty());
        self.validate_faults(n_procs as ProcId)?;
        let tuning = self.tuning;
        let mut nodes: Vec<Node<S>> = repos
            .iter()
            .map(|_| {
                let mut r = Repository::new(cc.protocol.mode(), cc.protocol.rel().clone())
                    .with_config(ConfigState::Stable(bootstrap.clone()))
                    .with_durability(tuning.durability)
                    .with_peers(repos.clone())
                    .with_batch(tuning.batch)
                    .with_gossip(tuning.scoped_statuses, tuning.status_gc);
                if let Some(iv) = tuning.anti_entropy {
                    r = r.with_anti_entropy(repos.clone(), iv);
                }
                if let Some(cc) = tuning.compaction {
                    r = r.with_compaction(cc);
                }
                Node::Repo(r)
            })
            .collect();
        let mut objects: Vec<ObjId> = self
            .workload
            .iter()
            .flatten()
            .flat_map(|t| t.ops.iter().map(|(o, _)| *o))
            .collect();
        objects.sort_unstable();
        objects.dedup();
        for txns in self.workload {
            let cfg = ClientConfig {
                protocol: cc.protocol.clone(),
                thresholds: thresholds.clone(),
                repos: repos.clone(),
                op_timeout: cc.op_timeout,
                max_phase_retries: tuning.max_phase_retries,
                think_time: tuning.think_time,
                commit_delay: cc.commit_delay,
                txn_retries: cc.txn_retries,
                propagate_views: tuning.propagate_views,
                fanout: tuning.fanout,
                delta_shipping: tuning.delta_shipping,
                compact_logs: tuning.compaction.is_some(),
                weaken_read_quorum: tuning.weaken_read_quorum,
                skip_final_ack: tuning.skip_final_ack,
                shards,
                batch: tuning.batch.max(1),
                batch_window: tuning.batch_window,
                shard_thresholds: self.shard_thresholds.clone(),
                status_gc: tuning.status_gc.is_some(),
                resolve_retransmit: tuning.resolve_retransmit,
            };
            nodes.push(Node::Client(Client::new(cfg, txns)));
        }
        if !schedule.is_empty() {
            nodes.push(Node::Reconfig(Reconfigurer::new(
                bootstrap,
                schedule,
                cc.op_timeout,
            )));
        }
        Ok(Assembly {
            nodes,
            protocol: cc.protocol,
            objects,
            batch: tuning.batch.max(1),
            net: self.net,
            faults: self.faults,
            trace_cfg: self.trace_cfg,
            seed: self.seed,
            max_time: self.max_time,
        })
    }

    /// Structural checks on a manual reconfiguration schedule. (Reactive
    /// policies need none: the planner only emits legal configurations.)
    fn validate_reconfig(&self, cc: &ProtocolConfig) -> Result<(), ReplicationError> {
        let ReconfigPolicy::Manual(schedule) = &self.reconfig else {
            return Ok(());
        };
        let mut last_epoch = 0u64;
        let mut last_t = 0;
        for (t, c) in schedule {
            if *t < last_t {
                return Err(ReplicationError::InvalidReconfig(format!(
                    "install times must be nondecreasing ({t} after {last_t})"
                )));
            }
            last_t = *t;
            if c.epoch <= last_epoch {
                return Err(ReplicationError::InvalidReconfig(format!(
                    "epochs must increase (epoch {} after {last_epoch})",
                    c.epoch
                )));
            }
            last_epoch = c.epoch;
            if let Some(m) = c.members.iter().find(|m| **m >= self.n_repos) {
                return Err(ReplicationError::InvalidReconfig(format!(
                    "epoch {}: member {m} outside the cluster (n = {})",
                    c.epoch, self.n_repos
                )));
            }
            c.validate(cc.protocol.rel())?;
        }
        Ok(())
    }

    /// Checks that every fault window names processes of the cluster's
    /// `n` and does not end before it starts: every host indexes its
    /// nodes by the plan's process ids.
    fn validate_faults(&self, n: ProcId) -> Result<(), ReplicationError> {
        let crashes = self.faults.crashes().iter();
        let crashes = crashes.map(|c| ("crash", std::slice::from_ref(&c.proc), c.from, c.until));
        let cuts = self.faults.partitions().iter();
        let cuts = cuts.map(|p| ("partition", &p.block[..], p.from, p.until));
        for (what, procs, from, until) in crashes.chain(cuts) {
            let why = if let Some(p) = procs.iter().find(|p| **p >= n) {
                format!("{what} names process {p}, outside the cluster (n = {n})")
            } else if until < from {
                format!("{what} window ends at {until}, before it starts at {from}")
            } else {
                continue;
            };
            return Err(ReplicationError::InvalidFaultPlan(why));
        }
        Ok(())
    }

    /// Resolves the reconfiguration policy into a concrete install
    /// schedule. Reactive policies replan over the surviving membership
    /// `detect_delay` ticks after each crash begins, scoring candidate
    /// assignments by availability under the fault plan's observed
    /// per-site uptime.
    fn reconfig_schedule(&self, cc: &ProtocolConfig) -> Vec<(SimTime, Config)> {
        match &self.reconfig {
            ReconfigPolicy::None => Vec::new(),
            ReconfigPolicy::Manual(schedule) => schedule.clone(),
            ReconfigPolicy::Reactive {
                detect_delay,
                priority,
            } => {
                let horizon = self.max_time.max(1);
                // Observed availability: each site's uptime fraction over
                // the run, from the statically known fault plan.
                let up = self.uptime_fractions(horizon);
                let ops = S::op_classes();
                let evs = S::event_classes();
                let mut triggers: Vec<SimTime> = self
                    .faults
                    .crashes()
                    .iter()
                    .filter(|c| c.proc < self.n_repos)
                    .map(|c| c.from + detect_delay)
                    .filter(|t| *t < horizon)
                    .collect();
                triggers.sort_unstable();
                triggers.dedup();
                let mut schedule = Vec::new();
                let mut members: Vec<ProcId> = (0..self.n_repos).collect();
                let mut epoch = 0u64;
                for t in triggers {
                    let alive: Vec<ProcId> = (0..self.n_repos)
                        .filter(|r| !self.faults.is_crashed(*r, t))
                        .collect();
                    if alive == members || alive.is_empty() {
                        continue;
                    }
                    let site_set = SiteSet::from_ids(alive.iter().map(|r| *r as u8));
                    let Ok(plan) =
                        planner::plan(cc.protocol.rel(), site_set, &up, &ops, &evs, priority)
                    else {
                        continue;
                    };
                    epoch += 1;
                    members = alive.clone();
                    schedule.push((t, Config::new(epoch, alive, plan.thresholds)));
                }
                schedule
            }
            ReconfigPolicy::SelfHealing {
                detect_delay,
                heartbeat,
                clean_heartbeats,
                priority,
            } => {
                let horizon = self.max_time.max(1);
                let up = self.uptime_fractions(horizon);
                let ops = S::op_classes();
                let evs = S::event_classes();
                let hb = (*heartbeat).max(1);
                let k = (*clean_heartbeats).max(1);
                // The event stream: shrink detections (like Reactive) plus
                // hysteresis-gated rejoins. A rejoin for a crash interval
                // fires `k` clean heartbeats after its recovery — and only
                // if every probe in that window observes the site up. A
                // flapping site fails its probes, so only its *final*
                // recovery produces an install: hysteresis by construction.
                #[derive(Clone, Copy)]
                enum Ev {
                    Shrink,
                    Rejoin(ProcId),
                }
                let mut events: Vec<(SimTime, u64, Ev)> = Vec::new();
                for c in self.faults.crashes() {
                    if c.proc >= self.n_repos {
                        continue;
                    }
                    let t = c.from + detect_delay;
                    if t < horizon {
                        events.push((t, 0, Ev::Shrink));
                    }
                    if c.until >= horizon {
                        continue;
                    }
                    let clean = (1..=u64::from(k))
                        .all(|i| !self.faults.is_crashed(c.proc, c.until + i * hb));
                    let t = c.until + u64::from(k) * hb;
                    if clean && t < horizon {
                        events.push((t, 1 + u64::from(c.proc), Ev::Rejoin(c.proc)));
                    }
                }
                events.sort_by_key(|(t, order, _)| (*t, *order));
                let mut schedule = Vec::new();
                let mut members: Vec<ProcId> = (0..self.n_repos).collect();
                let mut epoch = 0u64;
                for (t, _, ev) in events {
                    let next: Vec<ProcId> = match ev {
                        Ev::Shrink => members
                            .iter()
                            .copied()
                            .filter(|r| !self.faults.is_crashed(*r, t))
                            .collect(),
                        Ev::Rejoin(p) => {
                            if members.contains(&p) || self.faults.is_crashed(p, t) {
                                continue;
                            }
                            let mut m = members.clone();
                            m.push(p);
                            m.sort_unstable();
                            m
                        }
                    };
                    if next == members || next.is_empty() {
                        continue;
                    }
                    let site_set = SiteSet::from_ids(next.iter().map(|r| *r as u8));
                    let Ok(plan) =
                        planner::plan(cc.protocol.rel(), site_set, &up, &ops, &evs, priority)
                    else {
                        continue;
                    };
                    epoch += 1;
                    members = next.clone();
                    schedule.push((t, Config::new(epoch, next, plan.thresholds)));
                }
                schedule
            }
        }
    }

    /// Each site's uptime fraction over the run, from the statically known
    /// fault plan — the availability signal the replanner scores with.
    fn uptime_fractions(&self, horizon: SimTime) -> Vec<f64> {
        (0..self.n_repos)
            .map(|r| {
                let down: u64 = self
                    .faults
                    .crashes()
                    .iter()
                    .filter(|c| c.proc == r)
                    .map(|c| c.until.min(horizon).saturating_sub(c.from.min(horizon)))
                    .sum();
                1.0 - (down.min(horizon) as f64 / horizon as f64)
            })
            .collect()
    }

    fn default_thresholds(&self) -> ThresholdAssignment {
        self.thresholds.clone().unwrap_or_else(|| {
            let n = self.n_repos;
            let maj = n / 2 + 1;
            let mut ta = ThresholdAssignment::new(n);
            for op in S::op_classes() {
                ta.set_initial(op, maj);
            }
            for ev in S::event_classes() {
                ta.set_final(ev, maj);
            }
            ta
        })
    }
}

/// A validated, built cluster: the drivers a host steps, and the recipe
/// for reading them back into a [`RunReport`]. Made by
/// [`RunBuilder::assemble`]; every host — simulator, explorer, sockets
/// — goes through it, so they share one validation and one harvest.
#[derive(Debug)]
pub struct Assembly<S: Classified> {
    nodes: Vec<Node<S>>,
    protocol: Protocol,
    objects: Vec<ObjId>,
    batch: u32,
    net: NetworkConfig,
    faults: FaultPlan,
    trace_cfg: TraceConfig,
    seed: u64,
    max_time: SimTime,
}

impl<S: Classified + Enumerable> Assembly<S> {
    /// Hands out the drivers in process-id order — repositories `0..n`,
    /// then one client per workload entry, then the reconfiguration
    /// coordinator when the policy schedules anything. Empty on a second
    /// call.
    pub fn take_nodes(&mut self) -> Vec<Node<S>> {
        std::mem::take(&mut self.nodes)
    }

    /// Runs the drivers under the deterministic simulator.
    fn run(mut self) -> RunReport<S> {
        let nodes = self.take_nodes();
        let faults = std::mem::replace(&mut self.faults, FaultPlan::none());
        let mut sim = Sim::with_trace(nodes, self.net, faults, self.seed, self.trace_cfg);
        let sim_stats = sim.run(self.max_time);
        let trace = sim.take_trace();
        self.harvest(sim.processes(), sim_stats, trace)
    }

    /// Reads a [`RunReport`] back from the drivers (all of them, in the
    /// order [`Assembly::take_nodes`] handed them out), identically for
    /// every host. `stats` are the host's message and timer counters.
    pub fn harvest<'a>(
        &self,
        nodes: impl IntoIterator<Item = &'a Node<S>>,
        stats: SimStats,
        trace: Option<TraceBuffer>,
    ) -> RunReport<S>
    where
        S: 'a,
    {
        let mut clients = Vec::new();
        let mut reconfigs = Vec::new();
        let mut repo_logs = Vec::new();
        let mut repo_state = Vec::new();
        let mut repo_counters: Vec<RepoCounters> = Vec::new();
        let mut telemetry = RunTelemetry::for_run(self.protocol.mode().name(), stats, self.batch);
        for (id, node) in nodes.into_iter().enumerate() {
            match node {
                Node::Repo(r) => {
                    let state: Vec<_> = self.objects.iter().map(|o| (*o, r.log(*o))).collect();
                    let lens: Vec<_> = state.iter().map(|(o, l)| (*o, l.len())).collect();
                    let counters = r.counters();
                    telemetry.add_repo(
                        &counters,
                        r.batch_fills(),
                        lens.iter().map(|(_, len)| *len as u64),
                    );
                    repo_logs.push(lens);
                    repo_state.push(state);
                    repo_counters.push(counters);
                }
                Node::Client(c) => {
                    telemetry.add_client(&c.stats(), c.metrics(), c.eval_counters());
                    clients.push((id as ProcId, c.records().to_vec(), c.stats()));
                }
                Node::Reconfig(r) => reconfigs = r.records().to_vec(),
            }
        }
        // Rejoins: members a committed install added relative to its
        // predecessor (bootstrap = the full cluster, so the count is 0
        // for pure-shrink schedules and for runs without reconfiguration).
        let mut prev: BTreeSet<ProcId> = (0..repo_state.len() as ProcId).collect();
        for rec in &reconfigs {
            let cur: BTreeSet<ProcId> = rec.members.iter().copied().collect();
            telemetry.rejoins += cur.difference(&prev).count() as u64;
            prev = cur;
        }

        RunReport {
            protocol: self.protocol.clone(),
            clients,
            objects: self.objects.clone(),
            repo_logs,
            repo_state,
            repo_counters,
            sim_stats: stats,
            telemetry,
            trace,
            reconfigs,
        }
    }
}

/// Everything harvested from one cluster run. Fields are private; the
/// accessors below are the stable surface.
#[derive(Debug)]
pub struct RunReport<S: Classified> {
    protocol: Protocol,
    #[allow(clippy::type_complexity)]
    clients: Vec<(ProcId, Vec<Record<S::Inv, S::Res>>, ClientStats)>,
    objects: Vec<ObjId>,
    repo_logs: Vec<Vec<(ObjId, usize)>>,
    #[allow(clippy::type_complexity)]
    repo_state: Vec<Vec<(ObjId, ObjectLog<S::Inv, S::Res>)>>,
    repo_counters: Vec<RepoCounters>,
    sim_stats: SimStats,
    telemetry: RunTelemetry,
    trace: Option<TraceBuffer>,
    reconfigs: Vec<ReconfigRecord>,
}

impl<S: Classified + Enumerable> RunReport<S> {
    /// Aggregated outcome counters across all clients.
    pub fn stats(&self) -> ClientStats {
        let mut out = ClientStats::default();
        for (_, _, s) in &self.clients {
            out.committed += s.committed;
            out.aborted_conflict += s.aborted_conflict;
            out.aborted_unavailable += s.aborted_unavailable;
            out.ops_completed += s.ops_completed;
            out.stale_retries += s.stale_retries;
        }
        out
    }

    /// The view changes committed during the run, in order.
    pub fn reconfigs(&self) -> &[ReconfigRecord] {
        &self.reconfigs
    }

    /// The run's aggregated telemetry: counters, rates, and logical-time
    /// histograms.
    pub fn telemetry(&self) -> &RunTelemetry {
        &self.telemetry
    }

    /// The captured structured trace, when the run was built with an
    /// enabled [`TraceConfig`].
    pub fn trace(&self) -> Option<&TraceBuffer> {
        self.trace.as_ref()
    }

    /// The protocol that ran.
    pub fn protocol(&self) -> &Protocol {
        &self.protocol
    }

    /// Objects the workload touched.
    pub fn objects(&self) -> &[ObjId] {
        &self.objects
    }

    /// Per repository: entry counts per object at the end of the run
    /// (`repo_logs()[repo] = [(obj, entries)]`) — convergence diagnostics.
    pub fn repo_logs(&self) -> &[Vec<(ObjId, usize)>] {
        &self.repo_logs
    }

    /// Per repository: the full final object logs
    /// (`repo_state()[repo] = [(obj, log)]`) — what the safety oracle
    /// audits for lost writes and checkpoint nesting.
    #[allow(clippy::type_complexity)]
    pub fn repo_state(&self) -> &[Vec<(ObjId, ObjectLog<S::Inv, S::Res>)>] {
        &self.repo_state
    }

    /// Per repository: health counters (full-log fallbacks, recoveries,
    /// version/epoch regressions).
    pub fn repo_counters(&self) -> &[RepoCounters] {
        &self.repo_counters
    }

    /// Simulator counters.
    pub fn sim_stats(&self) -> SimStats {
        self.sim_stats
    }

    /// Per client: process id, captured records, outcome counters.
    #[allow(clippy::type_complexity)]
    pub fn clients(&self) -> &[(ProcId, Vec<Record<S::Inv, S::Res>>, ClientStats)] {
        &self.clients
    }

    /// The captured behavioral history of one object.
    pub fn history(&self, obj: ObjId) -> BHistory<S::Inv, S::Res> {
        #[allow(clippy::type_complexity)]
        let per_client: Vec<(u32, &[Record<S::Inv, S::Res>])> = self
            .clients
            .iter()
            .map(|(id, recs, _)| (*id, recs.as_slice()))
            .collect();
        history::assemble(&per_client, obj)
    }

    /// Checks every object's captured history against the protocol's
    /// atomicity property; returns the first violating object, if any.
    pub fn check_atomicity(&self, bounds: ExploreBounds) -> Result<(), ObjId> {
        for obj in &self.objects {
            let h = self.history(*obj);
            if !history::satisfies::<S>(self.protocol.mode(), &h, bounds) {
                return Err(*obj);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Mode;
    use quorumcc_core::DependencyRelation;
    use quorumcc_model::testtypes::{QInv, TestQueue};

    fn queue_protocol() -> Protocol {
        // The full relation is valid under majority quorums and cheap to
        // build (no corpus exploration needed in unit tests).
        Protocol::new(Mode::Hybrid, DependencyRelation::full::<TestQueue>())
    }

    fn workload() -> Vec<Vec<Transaction<QInv>>> {
        vec![
            vec![Transaction {
                ops: vec![(ObjId(0), QInv::Enq(1)), (ObjId(0), QInv::Deq)],
            }],
            vec![Transaction {
                ops: vec![(ObjId(0), QInv::Enq(2))],
            }],
        ]
    }

    #[test]
    fn missing_protocol_is_an_error_not_a_panic() {
        let err = RunBuilder::<TestQueue>::new(3)
            .workload(workload())
            .run()
            .unwrap_err();
        assert_eq!(err, ReplicationError::MissingProtocol);
    }

    #[test]
    fn invalid_network_is_an_error() {
        let err = RunBuilder::<TestQueue>::new(3)
            .protocol(ProtocolConfig::new(queue_protocol()))
            .network(NetworkConfig {
                min_delay: 9,
                max_delay: 2,
                ..NetworkConfig::default()
            })
            .run()
            .unwrap_err();
        assert!(matches!(err, ReplicationError::InvalidNetwork { .. }));
    }

    #[test]
    fn empty_workload_is_an_error() {
        let err = RunBuilder::<TestQueue>::new(3)
            .protocol(ProtocolConfig::new(queue_protocol()))
            .run()
            .unwrap_err();
        assert_eq!(err, ReplicationError::EmptyWorkload);
        // A workload of clients with no transactions is just as empty.
        let err = RunBuilder::<TestQueue>::new(3)
            .protocol(ProtocolConfig::new(queue_protocol()))
            .workload(vec![vec![], vec![]])
            .run()
            .unwrap_err();
        assert_eq!(err, ReplicationError::EmptyWorkload);
    }

    #[test]
    fn invalid_thresholds_are_an_error() {
        let ta = ThresholdAssignment::new(3); // all-zero thresholds
        let err = RunBuilder::<TestQueue>::new(3)
            .protocol(ProtocolConfig::new(queue_protocol()))
            .thresholds(ta)
            .workload(workload())
            .run()
            .unwrap_err();
        assert!(matches!(err, ReplicationError::InvalidThresholds(_)));
        assert!(err.to_string().contains("violate the dependency relation"));
    }

    /// `assemble` is the explorer's (and the socket harness's) way in, and
    /// it refuses what `run` refuses. The explorer's old private
    /// validation skipped both of these checks.
    #[test]
    fn assemble_refuses_bad_probabilities_and_shard_threshold_counts() {
        let base = || {
            RunBuilder::<TestQueue>::new(3)
                .protocol(ProtocolConfig::new(queue_protocol()))
                .workload(workload())
        };
        let err = base()
            .network(NetworkConfig {
                drop_prob: 1.5,
                ..NetworkConfig::default()
            })
            .assemble()
            .unwrap_err();
        assert!(matches!(err, ReplicationError::InvalidChaosProfile(_)));
        let majorities = base().default_thresholds();
        let err = base()
            .tuning(TuningConfig::default().shards(2))
            .shard_thresholds(vec![majorities.clone()])
            .assemble()
            .unwrap_err();
        assert!(matches!(err, ReplicationError::InvalidThresholds(_)));
        assert!(err.to_string().contains("1 assignments for 2 shards"));
        // The matching count assembles: 3 repositories + 2 clients.
        let mut ok = base()
            .tuning(TuningConfig::default().shards(2))
            .shard_thresholds(vec![majorities.clone(), majorities])
            .assemble()
            .unwrap();
        assert_eq!(ok.take_nodes().len(), 5);
    }

    /// Every host indexes its nodes by a fault plan's process ids, so a
    /// window naming a process outside the cluster (3 repositories + 2
    /// clients here) is refused, as is one that ends before it starts.
    /// A crash of process 9 used to panic the simulator mid-run.
    #[test]
    fn assemble_refuses_fault_plans_outside_the_cluster() {
        let run = |faults: &mut FaultPlan| {
            RunBuilder::<TestQueue>::new(3)
                .protocol(ProtocolConfig::new(queue_protocol()))
                .workload(workload())
                .faults(faults.clone())
                .run()
        };
        let err = run(FaultPlan::none().crash(9, 10, 20)).unwrap_err();
        assert_eq!(
            err.to_string(),
            "invalid fault plan: crash names process 9, outside the cluster (n = 5)"
        );
        for refused in [
            FaultPlan::none().crash(5, 10, 20),
            FaultPlan::none().partition([1, 7], 10, 20),
            FaultPlan::none().crash(0, 20, 10),
            FaultPlan::none().partition([0], 20, 10),
        ] {
            let err = run(refused).unwrap_err();
            assert!(
                matches!(err, ReplicationError::InvalidFaultPlan(_)),
                "{err}"
            );
        }
        assert!(
            run(FaultPlan::none().partition([4], 10, 20).crash(4, 10, 10)).is_ok(),
            "the last client's id and an empty window are in range"
        );
    }

    /// Action ids are `client × ACTION_SPAN + seq`: a client that could
    /// issue more than one span's worth (every retry takes a fresh id)
    /// would alias its neighbour's ids, and a high enough process id wraps
    /// `u32`. Both used to assemble and run.
    #[test]
    fn assemble_refuses_workloads_that_overflow_the_action_id_space() {
        let txn = || Transaction {
            ops: vec![(ObjId(0), QInv::Enq(1))],
        };
        let base = |n_repos: u32, txns: usize, retries: u32| {
            RunBuilder::<TestQueue>::new(n_repos)
                .protocol(ProtocolConfig::new(queue_protocol()).txn_retries(retries))
                .workload(vec![vec![txn()], (0..txns).map(|_| txn()).collect()])
                .assemble()
        };
        let span = ACTION_SPAN as usize;
        // One span exactly fits, with or without retries.
        assert!(base(3, span, 0).is_ok());
        assert!(base(3, span / 2, 1).is_ok());
        // One more does not; the error names the second client (process 4).
        let err = base(3, span + 1, 0).unwrap_err();
        assert_eq!(
            err,
            ReplicationError::ActionSpaceExhausted {
                client: 4,
                actions: span as u64 + 1,
            }
        );
        assert!(err
            .to_string()
            .starts_with("client 4 may issue up to 100001 actions"));
        let err = base(3, span / 2 + 1, 1).unwrap_err();
        assert!(matches!(
            err,
            ReplicationError::ActionSpaceExhausted { client: 4, actions } if actions == span as u64 + 2
        ));
        // Process ids from 42 950 up wrap u32 whatever the workload.
        let first_wrapping = u32::MAX / ACTION_SPAN + 1;
        let err = base(first_wrapping - 1, 1, 0).unwrap_err();
        assert_eq!(
            err,
            ReplicationError::ActionSpaceExhausted {
                client: first_wrapping,
                actions: 1,
            }
        );
    }

    #[test]
    fn setter_order_does_not_matter() {
        // The historical order-dependence hazard: no_view_propagation /
        // fanout / anti_entropy in every order must resolve identically.
        let base = || {
            RunBuilder::<TestQueue>::new(3)
                .protocol(ProtocolConfig::new(queue_protocol()).op_timeout(80))
                .seed(7)
                .max_time(4_000)
                .workload(workload())
        };
        let a = base().tuning(
            TuningConfig::default()
                .no_view_propagation()
                .fanout(Fanout::Narrow)
                .anti_entropy(25),
        );
        let b = base().tuning(
            TuningConfig::default()
                .anti_entropy(25)
                .fanout(Fanout::Narrow)
                .no_view_propagation(),
        );
        let c = base()
            .max_time(4_000) // repeated setter: last write wins, same value
            .tuning(
                TuningConfig::default()
                    .fanout(Fanout::Narrow)
                    .no_view_propagation()
                    .anti_entropy(25),
            );
        let (ra, rb, rc) = (
            a.run_unchecked().unwrap(),
            b.run_unchecked().unwrap(),
            c.run_unchecked().unwrap(),
        );
        assert_eq!(ra.stats(), rb.stats());
        assert_eq!(ra.stats(), rc.stats());
        assert_eq!(ra.sim_stats(), rb.sim_stats());
        assert_eq!(ra.sim_stats(), rc.sim_stats());
        assert_eq!(ra.repo_logs(), rb.repo_logs());
    }

    #[test]
    fn traced_run_carries_a_trace_and_telemetry() {
        let report = RunBuilder::<TestQueue>::new(3)
            .protocol(ProtocolConfig::new(queue_protocol()))
            .trace(TraceConfig::unbounded())
            .seed(1)
            .workload(workload())
            .run()
            .unwrap();
        let trace = report.trace().expect("trace captured");
        assert!(!trace.is_empty());
        let kinds: Vec<&str> = trace.events().iter().map(|e| e.action.kind()).collect();
        for expected in [
            "txn-begin",
            "phase-start",
            "phase-end",
            "send",
            "deliver",
            "reserve",
            "commit",
        ] {
            assert!(kinds.contains(&expected), "missing {expected}");
        }
        let t = report.telemetry();
        assert_eq!(t.committed as usize, report.stats().committed);
        assert_eq!(t.ops_completed as usize, report.stats().ops_completed);
        assert!(t.initial_rt.count() >= t.final_rt.count());
        assert_eq!(t.op_latency.count() as u64, t.ops_completed);
        assert!(t.messages_per_op() > 0.0);
        // Untraced identical run: same outcome, no trace.
        let untraced = RunBuilder::<TestQueue>::new(3)
            .protocol(ProtocolConfig::new(queue_protocol()))
            .seed(1)
            .workload(workload())
            .run()
            .unwrap();
        assert!(untraced.trace().is_none());
        assert_eq!(untraced.stats(), report.stats());
        assert_eq!(untraced.sim_stats(), report.sim_stats());
    }
}
