//! Clients with embedded front-ends: the §3.2 execution loop as a
//! message-driven state machine.
//!
//! Each operation runs in two quorum phases: **read** — collect logs from
//! an initial quorum and merge them into a view — and **write** — append
//! the freshly stamped entry and push the updated view to a final quorum.
//! Transactions commit by broadcasting a `Resolve` with a commit-time
//! Lamport timestamp (resolutions also gossip through later view writes,
//! so a lost broadcast only delays, never corrupts).
//!
//! Timestamps use the simulated time as the Lamport counter (physical
//! clocks are a valid Lamport implementation), which makes the captured
//! history's commit order coincide with commit-timestamp order — exactly
//! the "unambiguous ordering on Begin and Commit events" the paper
//! assumes.

use crate::messages::{Batcher, Msg};
use crate::metrics::ClientMetrics;
use crate::protocol::{ConflictReason, EvalCache, Protocol};
use crate::reconfig::{ConfigState, ShardedConfig};
use crate::types::{action_id, action_parts, ActionOutcome, LogEntry, ObjId};
use crate::view::{View, Views};
use quorumcc_model::{ActionId, Classified, Event};
use quorumcc_quorum::ThresholdAssignment;
use quorumcc_sim::trace::{AbortCause, ConflictKind, PhaseKind, TraceAction};
use quorumcc_sim::{Io, ProcId, SimTime, Timestamp};
use std::collections::{BTreeMap, BTreeSet};

/// A transaction: a sequence of operations on replicated objects.
#[derive(Debug, Clone)]
pub struct Transaction<I> {
    /// The operations, in order.
    pub ops: Vec<(ObjId, I)>,
}

/// What a client records for history reconstruction.
#[derive(Debug, Clone)]
pub enum Record<I, R> {
    /// An action began.
    Begin {
        /// Event time (= Begin timestamp counter).
        t: SimTime,
        /// The action.
        action: ActionId,
    },
    /// An operation completed (final quorum acknowledged).
    Op {
        /// Completion time.
        t: SimTime,
        /// The executing action.
        action: ActionId,
        /// The object operated on.
        obj: ObjId,
        /// The observed event.
        event: Event<I, R>,
    },
    /// The action committed.
    Commit {
        /// Commit time (= commit timestamp counter).
        t: SimTime,
        /// The action.
        action: ActionId,
    },
    /// The action aborted.
    Abort {
        /// Abort time.
        t: SimTime,
        /// The action.
        action: ActionId,
    },
}

/// Client-side outcome counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Transactions committed.
    pub committed: usize,
    /// Transactions aborted on a concurrency conflict.
    pub aborted_conflict: usize,
    /// Transactions aborted because a quorum was unreachable.
    pub aborted_unavailable: usize,
    /// Individual operations completed.
    pub ops_completed: usize,
    /// Transactions aborted on a stale configuration epoch and retried
    /// under the adopted one (these do not consume the retry budget and
    /// are not counted as conflict or unavailability aborts).
    pub stale_retries: usize,
}

/// Client configuration.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// The concurrency-control protocol.
    pub protocol: Protocol,
    /// Quorum thresholds (validated against the protocol's relation by the
    /// cluster builder).
    pub thresholds: ThresholdAssignment,
    /// Repository process ids.
    pub repos: Vec<ProcId>,
    /// Per-phase timeout before a retry.
    pub op_timeout: SimTime,
    /// Phase retries before declaring the quorum unavailable.
    pub max_phase_retries: u32,
    /// Idle time between transactions.
    pub think_time: SimTime,
    /// Delay between the last operation completing and the commit decision
    /// (models atomic-commitment latency; 0 = commit immediately).
    pub commit_delay: SimTime,
    /// How many times to re-run an aborted transaction (each attempt is a
    /// fresh action).
    pub txn_retries: u32,
    /// Whether final-quorum writes carry the whole merged view (§3.2's
    /// algorithm) or only the fresh entry. Disabling this is an ablation:
    /// transitive dependencies (a PROM `Read` learning of `Write`s through
    /// the `Seal` entry) stop working, and minimal quorum assignments
    /// become observably unsound.
    pub propagate_views: bool,
    /// Quorum fan-out policy.
    pub fanout: Fanout,
    /// Delta log shipping, both ways: piggyback per-site known frontiers
    /// on `ReadLog` so repositories ship only the missing suffix, mirrored
    /// locally per (object, site) — and cut each final-quorum `WriteLog`
    /// against that mirror, so it carries only what the site lacks.
    /// Disabling reverts to full-log replies and whole-view writes (the
    /// shipping ablation/baseline).
    pub delta_shipping: bool,
    /// Whether the cluster runs committed-prefix compaction (a mirror then
    /// garbage-collects aborted entries the same way repositories do).
    pub compact_logs: bool,
    /// Test-only fault injection for the safety oracle's self-test:
    /// assemble every initial view from one repository too few (and count
    /// one phantom reply toward the quorum check), silently weakening the
    /// `ti + tf > n` intersection by one site. Runs with this enabled
    /// produce histories the oracle must flag; never enable it outside
    /// tests.
    pub weaken_read_quorum: bool,
    /// Test-only fault injection, the second planted bug: treat every
    /// final-quorum write as complete the moment it is *sent*, without
    /// waiting for a single acknowledgment. Commits then race their own
    /// `WriteLog`s — a schedule that commits before any repository holds
    /// the entry is a lost write the oracle must flag. Never enable it
    /// outside tests.
    pub skip_final_ack: bool,
    /// Number of shards the object space is partitioned into (1 = the
    /// classic unsharded cluster). Each shard carries its own quorum map.
    pub shards: u16,
    /// Batch size and pipeline depth. `1` (the default) is byte-identical
    /// to the pre-batching client: one operation in flight, every message
    /// sent raw. Above 1, up to `batch` operations of a transaction run
    /// their quorum phases concurrently (reads of one shard overlapping
    /// writes of another), and up to `batch` payloads per destination
    /// coalesce into one [`Msg::Batch`] envelope.
    pub batch: u32,
    /// Logical-time flush window: `0` flushes pending batches at the end
    /// of every event (the deterministic default); `w > 0` holds queues
    /// open across events for up to `w` ticks, trading latency for fill.
    pub batch_window: SimTime,
    /// Per-shard threshold assignments; when its length equals `shards`,
    /// shard `s` bootstraps with `shard_thresholds[s]` instead of the
    /// global `thresholds` (membership and epoch stay global).
    pub shard_thresholds: Vec<ThresholdAssignment>,
    /// Status-GC participation: tally [`Msg::ResolveAck`]s, advance the
    /// durable resolution frontier, piggyback it on every `ReadLog`, and
    /// prune locally known resolutions once globally acknowledged (a full
    /// ack set proves every repository processed the `Resolve`, so no
    /// reservation or undecided entry can still depend on the gossip
    /// backup). Enable together with the repositories' GC batch.
    pub status_gc: bool,
    /// Resolve retransmission period (`None` = off, the legacy
    /// fire-and-forget behaviour). When set together with `status_gc`,
    /// the client keeps every resolution below the durable frontier in a
    /// pending set and periodically re-sends [`Msg::Resolve`] to exactly
    /// the repositories whose [`Msg::ResolveAck`] is still missing. This
    /// is the frontier-repair path: a repository crash that loses an ack
    /// (or the `Resolve` itself) would otherwise stall `durable_next` —
    /// and with it status GC — forever. Retransmission is safe because
    /// repositories apply `Resolve` idempotently and re-ack every receipt.
    pub resolve_retransmit: Option<SimTime>,
}

/// How a front-end selects the repositories it contacts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fanout {
    /// Contact every repository, count the first quorum of replies. Extra
    /// replicas receive the data too (maximum redundancy).
    Broadcast,
    /// Contact exactly a quorum-sized, per-request-rotating subset
    /// (load-optimized preferred quorums); timeouts fall back to
    /// broadcast. This is the configuration under which quorum sizes are
    /// exactly what lands on disk — used by the propagation ablation.
    Narrow,
}

const TOKEN_KICK: u64 = 0;
const TOKEN_COMMIT: u64 = u64::MAX;
const TOKEN_FLUSH: u64 = u64::MAX - 2;
const TOKEN_RETRANSMIT: u64 = u64::MAX - 3;

/// Consecutive retransmit rounds without frontier progress before the
/// client gives up on repair (a repository that never comes back should
/// not keep the process awake forever).
const RETRANSMIT_GIVE_UP: u32 = 64;

/// A resolution held for frontier repair: the action, its outcome, and
/// the `(object, entry)` pairs its `Resolve` names.
type PendingResolve = (ActionId, ActionOutcome, Vec<(ObjId, u32)>);

impl<I, R> Phase<I, R> {
    /// The object the phase operates on.
    fn obj(&self) -> ObjId {
        match self {
            Phase::Reading { obj, .. } | Phase::Writing { obj, .. } => *obj,
        }
    }
}

#[derive(Debug, Clone)]
enum Phase<I, R> {
    Reading {
        op_idx: usize,
        obj: ObjId,
        inv: I,
        replied: BTreeSet<ProcId>,
        retries: u32,
        since: SimTime,
        started: SimTime,
    },
    Writing {
        obj: ObjId,
        event: Event<I, R>,
        entry: LogEntry<I, R>,
        acks: BTreeSet<ProcId>,
        retries: u32,
        since: SimTime,
        started: SimTime,
    },
}

/// A read whose quorum assembled before all earlier operations were
/// evaluated: parked until its turn. Evaluation is strictly in program
/// order, so when operation `k` evaluates, the `own` entries of every
/// operation before `k` already exist — pipelining reorders network
/// phases, never the serial semantics of the transaction.
#[derive(Debug, Clone)]
struct ReadyRead<I> {
    obj: ObjId,
    inv: I,
    started: SimTime,
}

#[derive(Debug, Clone)]
struct Txn<I, R> {
    action: ActionId,
    begin_ts: Timestamp,
    /// Next operation to launch a read phase for.
    next_op: usize,
    /// Operations evaluated so far (their write phase entered, their
    /// entry appended to `own`). Always contiguous from 0.
    evaluated: usize,
    /// Operations whose final quorum completed.
    completed: usize,
    own: BTreeMap<ObjId, Vec<LogEntry<I, R>>>,
    /// In-flight quorum phases, keyed by request id (= timer token).
    /// At pipeline depth 1 this holds at most one phase.
    phases: BTreeMap<u64, Phase<I, R>>,
    /// Assembled reads awaiting in-order evaluation, keyed by op index.
    ready: BTreeMap<usize, ReadyRead<I>>,
    attempts_left: u32,
}

impl<I, R> Txn<I, R> {
    fn in_flight(&self) -> usize {
        self.phases.len() + self.ready.len()
    }
}

/// A client process driving transactions through its embedded front-end.
#[derive(Debug, Clone)]
pub struct Client<S: Classified> {
    cfg: ClientConfig,
    txns: Vec<Transaction<S::Inv>>,
    cursor: usize,
    action_seq: u32,
    current: Option<Txn<S::Inv, S::Res>>,
    records: Vec<Record<S::Inv, S::Res>>,
    stats: ClientStats,
    metrics: ClientMetrics,
    req_counter: u64,
    last_counter: u64,
    known: BTreeMap<ActionId, ActionOutcome>,
    retry_pending: Option<u32>,
    /// One persistent view per object, holding the front-end's mirror of
    /// each site's log of it as a column: a `LogReply`'s delta advances the
    /// site's mirror ([`View::advance`]), whose version is the frontier
    /// piggybacked on the next `ReadLog` to that site. A read round syncs
    /// and joins the view over what its mirror columns disagree on, and the
    /// write cuts it.
    views: Views<S::Inv, S::Res>,
    /// The per-shard quorum maps this front-end currently believes
    /// govern: quorum counting and fan-out follow the shard of the object
    /// operated on, and every quorum-bearing message carries that shard's
    /// version. Updated when a repository bounces a request with
    /// [`Msg::StaleConfig`].
    config: ShardedConfig,
    /// Per-destination send coalescing (`Some` iff `cfg.batch > 1`).
    batcher: Option<Batcher<S::Inv, S::Res>>,
    /// Whether a `TOKEN_FLUSH` timer is pending (window mode only).
    flush_scheduled: bool,
    /// Per-sequence-number [`Msg::ResolveAck`] tallies for this client's
    /// resolved actions (status GC only).
    acks_by_seq: BTreeMap<u32, BTreeSet<ProcId>>,
    /// Smallest action sequence number not yet acknowledged by every
    /// repository; every sequence below it is globally durable.
    durable_next: u32,
    /// Resolutions not yet below the durable frontier, kept for
    /// retransmission (populated only when `cfg.resolve_retransmit` and
    /// `cfg.status_gc` are both on). Keyed by action sequence number.
    pending_resolves: BTreeMap<u32, PendingResolve>,
    /// Whether a `TOKEN_RETRANSMIT` timer is outstanding.
    retransmit_armed: bool,
    /// `durable_next` as of the previous retransmit fire (stall detection).
    frontier_at_last_fire: u32,
    /// Consecutive retransmit fires without frontier progress.
    stall_streak: u32,
    /// One evaluation cache per (object, op class): an operation replays
    /// what committed since this front-end last evaluated that class on
    /// that object, not the history.
    evals: EvalCaches<S>,
}

/// The evaluation caches, rendered as nothing: which ones exist depends on
/// the path to a state (see [`EvalCache`]'s `Debug`).
#[derive(Clone)]
struct EvalCaches<S: Classified>(BTreeMap<(ObjId, &'static str), EvalCache<S>>);

impl<S: Classified> std::fmt::Debug for EvalCaches<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("EvalCaches")
    }
}

impl<S: Classified> Client<S> {
    /// Builds a client that will run `txns` under `cfg`, starting from the
    /// epoch-0 configuration (all of `cfg.repos` with `cfg.thresholds`,
    /// or per-shard thresholds when `cfg.shard_thresholds` supplies them).
    pub fn new(cfg: ClientConfig, txns: Vec<Transaction<S::Inv>>) -> Self {
        let shards = cfg.shards.max(1);
        let states: Vec<ConfigState> = if cfg.shard_thresholds.len() == shards as usize {
            cfg.shard_thresholds
                .iter()
                .map(|ta| ConfigState::bootstrap(cfg.repos.iter().copied(), ta.clone()))
                .collect()
        } else {
            vec![
                ConfigState::bootstrap(cfg.repos.iter().copied(), cfg.thresholds.clone());
                shards as usize
            ]
        };
        let config = ShardedConfig::from_states(states);
        let batcher = (cfg.batch > 1).then(|| Batcher::new(cfg.batch as usize));
        Client {
            cfg,
            txns,
            cursor: 0,
            action_seq: 0,
            current: None,
            records: Vec::new(),
            stats: ClientStats::default(),
            metrics: ClientMetrics::default(),
            req_counter: 0,
            last_counter: 0,
            known: BTreeMap::new(),
            retry_pending: None,
            views: Views {
                of: BTreeMap::new(),
                live: BTreeSet::new(),
            },
            config,
            batcher,
            flush_scheduled: false,
            acks_by_seq: BTreeMap::new(),
            durable_next: 0,
            pending_resolves: BTreeMap::new(),
            retransmit_armed: false,
            frontier_at_last_fire: 0,
            stall_streak: 0,
            evals: EvalCaches(BTreeMap::new()),
        }
    }

    /// The durable-GC frontier: every action sequence number below this is
    /// acknowledged by every repository. Exposed for the recovery property
    /// tests (monotonicity under duplicated/reordered acks).
    pub fn durable_frontier_seq(&self) -> u32 {
        self.durable_next
    }

    /// The durable resolution frontier to piggyback on `ReadLog` sends
    /// (0 = no promise, also the status-GC-off value). `durable_next` is
    /// the smallest sequence *not yet* fully acked, so everything at or
    /// below `durable_next - 1` is collectable.
    fn durable_frontier(&self) -> u64 {
        if !self.cfg.status_gc {
            return 0;
        }
        // Count semantics: the number of contiguously acked sequence
        // numbers from 0 — every action with `seq < durable_next` is
        // globally durable. (Not "highest acked seq": that encoding
        // cannot distinguish "nothing acked" from "seq 0 acked", which
        // would pin every client's first action forever.)
        u64::from(self.durable_next)
    }

    /// Pipeline depth: how many of a transaction's operations may hold
    /// in-flight quorum phases at once.
    fn depth(&self) -> usize {
        self.cfg.batch.max(1) as usize
    }

    /// Routes a batchable send: raw when batching is off, coalesced
    /// otherwise.
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

    /// End-of-event flush (or window-timer scheduling) for the batcher.
    fn flush_batch<IO: Io<Msg<S::Inv, S::Res>> + ?Sized>(&mut self, ctx: &mut IO) {
        let Some(b) = &mut self.batcher else { return };
        if self.cfg.batch_window == 0 {
            b.flush(ctx);
        } else if !self.flush_scheduled && !b.is_empty() {
            ctx.set_timer(self.cfg.batch_window, TOKEN_FLUSH);
            self.flush_scheduled = true;
        }
        self.metrics.batches_flushed = b.flushed();
        self.metrics.batch_fill.extend(b.take_fills());
    }

    /// The log-version frontier to piggyback on a `ReadLog` to `site`
    /// (0 = request a full transfer, also the delta-shipping-off value).
    fn frontier(&self, obj: ObjId, site: ProcId) -> u64 {
        if !self.cfg.delta_shipping {
            return 0;
        }
        (self.views.of.get(&obj)).map_or(0, |view| view.version(site))
    }

    /// The final-quorum `WriteLog` of `obj`'s view and its fresh `entry`
    /// under request `req`: the part of the view beyond the mirror of
    /// `site`'s log, at the mirror's version ([`View::cut`]) — or the whole
    /// view (`base` 0) when there is no mirror to cut against, or no `site`:
    /// what a refusal and every timer retry are answered with. The mirror
    /// stays as the last `LogReply` left it: an ack says the site merged
    /// the delta, not what else its log holds by now, so only a read may
    /// advance it.
    fn write_msg(
        &self,
        obj: ObjId,
        req: u64,
        entry: &LogEntry<S::Inv, S::Res>,
        site: Option<ProcId>,
    ) -> Msg<S::Inv, S::Res> {
        let view = &self.views.of[&obj];
        let cut = site.filter(|_| self.cfg.delta_shipping);
        let (log, base) =
            (cut.and_then(|s| view.cut(s))).unwrap_or_else(|| (view.log().clone(), 0));
        Msg::WriteLog {
            obj,
            req,
            log,
            entry: Some(entry.clone()),
            cfg: self.config.state(obj).version(),
            base,
        }
    }

    /// The records captured so far (for history assembly).
    pub fn records(&self) -> &[Record<S::Inv, S::Res>] {
        &self.records
    }

    /// True once the client has no further work to do: every scripted
    /// transaction has been decided and no retry is pending. Real-time
    /// backends use this to detect quiescence (the DES backend instead
    /// runs until its event queue drains).
    pub fn is_done(&self) -> bool {
        self.cursor >= self.txns.len() && self.current.is_none() && self.retry_pending.is_none()
    }

    /// Outcome counters.
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// Raw metric samples collected so far (latencies, retries, views).
    pub fn metrics(&self) -> &ClientMetrics {
        &self.metrics
    }

    /// Sums of [`EvalCache::counters`] over this client's caches:
    /// `(evaluations, rebuilds, suffix entries folded)`.
    pub fn eval_counters(&self) -> (u64, u64, u64) {
        (self.evals.0.values().map(EvalCache::counters))
            .fold((0, 0, 0), |t, c| (t.0 + c.0, t.1 + c.1, t.2 + c.2))
    }

    /// The repositories to contact for a phase on `obj` wanting `k`
    /// responses — drawn from the membership of the configuration
    /// governing `obj`'s shard (the union of both memberships while a
    /// reconfiguration is in flight).
    fn targets(&self, obj: ObjId, req: u64, k: u32, fallback: bool) -> Vec<ProcId> {
        let members = self.config.state(obj).members();
        match self.cfg.fanout {
            Fanout::Broadcast => members,
            Fanout::Narrow if fallback => members,
            Fanout::Narrow => {
                let n = members.len();
                let k = (k as usize).min(n);
                (0..k).map(|i| members[(req as usize + i) % n]).collect()
            }
        }
    }

    fn fresh_ts<IO: Io<Msg<S::Inv, S::Res>> + ?Sized>(&mut self, ctx: &IO) -> Timestamp {
        let counter = ctx.now().max(self.last_counter + 1);
        self.last_counter = counter;
        Timestamp {
            counter,
            node: ctx.me(),
        }
    }

    fn start_next_txn<IO: Io<Msg<S::Inv, S::Res>> + ?Sized>(&mut self, ctx: &mut IO) {
        if self.cursor >= self.txns.len() {
            return; // workload done; going quiet drains the simulation
        }
        self.begin_txn(ctx, self.cfg.txn_retries);
    }

    /// Begins the transaction at the cursor as a fresh action with
    /// `attempts_left` retries to spend.
    fn begin_txn<IO: Io<Msg<S::Inv, S::Res>> + ?Sized>(
        &mut self,
        ctx: &mut IO,
        attempts_left: u32,
    ) {
        let action = action_id(ctx.me(), self.action_seq);
        self.action_seq += 1;
        let begin_ts = self.fresh_ts(ctx);
        self.records.push(Record::Begin {
            t: begin_ts.counter,
            action,
        });
        ctx.trace(TraceAction::TxnBegin {
            action: u64::from(action.0),
        });
        self.current = Some(Txn {
            action,
            begin_ts,
            next_op: 0,
            evaluated: 0,
            completed: 0,
            own: BTreeMap::new(),
            phases: BTreeMap::new(),
            ready: BTreeMap::new(),
            attempts_left,
        });
        self.pump(ctx);
    }

    /// The pipeline driver: launches read phases in program order while
    /// the depth budget allows and the next operation's shard is disjoint
    /// from every in-flight operation's shard. At depth 1 this launches
    /// exactly one operation at a time — the classic serial front-end.
    fn pump<IO: Io<Msg<S::Inv, S::Res>> + ?Sized>(&mut self, ctx: &mut IO) {
        loop {
            let Some(txn) = &self.current else { return };
            if txn.next_op >= self.txns[self.cursor].ops.len() || txn.in_flight() >= self.depth() {
                return;
            }
            let map = self.config.map();
            let shard = map.of(self.txns[self.cursor].ops[txn.next_op].0);
            let busy = txn.phases.values().any(|p| map.of(p.obj()) == shard)
                || txn.ready.values().any(|r| map.of(r.obj) == shard);
            if busy {
                // Head-of-line: operations launch strictly in order, so a
                // same-shard collision stalls the pipeline rather than
                // reordering it.
                return;
            }
            self.start_op(ctx);
        }
    }

    fn start_op<IO: Io<Msg<S::Inv, S::Res>> + ?Sized>(&mut self, ctx: &mut IO) {
        let Some(txn) = &mut self.current else { return };
        let op_idx = txn.next_op;
        let (obj, inv) = self.txns[self.cursor].ops[op_idx].clone();
        self.req_counter += 1;
        let req = self.req_counter;
        let mut ti = self.config.state(obj).max_initial(S::op_class(&inv));
        if self.cfg.weaken_read_quorum {
            // The injected bug: assemble the initial view from one site
            // too few, breaking the ti + tf > n co-presence requirement.
            // Under narrow fan-out this shrinks the contacted set itself,
            // so reservations and views both lose guaranteed intersection
            // with final quorums — the unsoundness the oracle must catch.
            ti = ti.saturating_sub(1).max(1);
        }
        txn.next_op += 1;
        txn.phases.insert(
            req,
            Phase::Reading {
                op_idx,
                obj,
                inv,
                replied: BTreeSet::new(),
                retries: 0,
                since: ctx.now(),
                started: ctx.now(),
            },
        );
        ctx.trace(TraceAction::PhaseStart {
            obj: u64::from(obj.0),
            req,
            phase: PhaseKind::Read,
        });
        self.send_reads(ctx, req, ti, false);
    }

    /// Sends the read round of the `Reading` phase `req` to `k`
    /// repositories (every member on a `fallback`), each with the frontier
    /// of its mirror, and arms the phase timeout.
    fn send_reads<IO: Io<Msg<S::Inv, S::Res>> + ?Sized>(
        &mut self,
        ctx: &mut IO,
        req: u64,
        k: u32,
        fallback: bool,
    ) {
        let Some(txn) = &self.current else { return };
        let Some(Phase::Reading { obj, inv, .. }) = txn.phases.get(&req) else {
            return;
        };
        let (obj, op) = (*obj, S::op_class(inv));
        let (action, begin_ts) = (txn.action, txn.begin_ts);
        let cfg = self.config.state(obj).version();
        let durable = self.durable_frontier();
        for r in self.targets(obj, req, k, fallback) {
            let since = self.frontier(obj, r);
            self.send_msg(
                ctx,
                r,
                Msg::ReadLog {
                    obj,
                    req,
                    action,
                    begin_ts,
                    op,
                    cfg,
                    since,
                    durable,
                },
            );
        }
        ctx.set_timer(self.cfg.op_timeout, req);
    }

    /// Evaluates parked reads in program order for as long as the next
    /// op's read has assembled (evaluation may abort the transaction,
    /// which empties everything and stops the loop).
    fn drain_ready<IO: Io<Msg<S::Inv, S::Res>> + ?Sized>(&mut self, ctx: &mut IO) {
        loop {
            let Some(txn) = &mut self.current else { return };
            let idx = txn.evaluated;
            let Some(ready) = txn.ready.remove(&idx) else {
                return;
            };
            self.evaluate_and_write(ctx, idx, ready);
        }
    }

    /// Initial quorum assembled and it is this op's turn: run the
    /// protocol, then push the view to a final quorum.
    fn evaluate_and_write<IO: Io<Msg<S::Inv, S::Res>> + ?Sized>(
        &mut self,
        ctx: &mut IO,
        op_idx: usize,
        ready: ReadyRead<S::Inv>,
    ) {
        let Some(txn) = &mut self.current else { return };
        let ReadyRead { obj, inv, started } = ready;
        let own = txn.own.get(&obj).map_or(&[][..], Vec::as_slice);
        let cache = self.evals.0.entry((obj, S::op_class(&inv))).or_default();
        let view = self.views.of[&obj].log();
        match (self.cfg.protocol).evaluate_from(cache, view, own, txn.action, txn.begin_ts, &inv) {
            Err(conflict) => {
                ctx.trace(TraceAction::Conflict {
                    obj: u64::from(obj.0),
                    action: u64::from(txn.action.0),
                    with: u64::from(conflict.with.0),
                    kind: match conflict.reason {
                        ConflictReason::Lock => ConflictKind::Lock,
                        ConflictReason::TooLate => ConflictKind::TooLate,
                        ConflictReason::DirtyPast => ConflictKind::DirtyPast,
                    },
                });
                self.abort_txn(ctx, AbortCause::Conflict);
            }
            Ok(res) => {
                let ts = self.fresh_ts(ctx);
                let txn = self.current.as_mut().expect("txn in progress");
                let event = Event::new(inv.clone(), res);
                let entry = LogEntry {
                    ts,
                    action: txn.action,
                    begin_ts: txn.begin_ts,
                    event: event.clone(),
                };
                txn.own.entry(obj).or_default().push(entry.clone());
                txn.evaluated = op_idx + 1;

                // The view written back: the quorum's logs + prior own
                // entries for this object + every resolution we know. The
                // fresh entry rides separately for reservation validation.
                // (Under the ablation, only own entries and resolutions are
                // written — no transitive log propagation.) It stays as it
                // is until the phase ends: refusals and timer retries
                // resend it whole.
                let view = self.views.of.get_mut(&obj).expect("read into");
                if !self.cfg.propagate_views {
                    view.clear();
                }
                for e in txn.own.get(&obj).into_iter().flatten() {
                    view.insert(e.clone());
                }
                for (a, o) in &self.known {
                    view.resolve(*a, *o);
                }

                let need = self
                    .config
                    .state(obj)
                    .max_final(S::event_class(&event.inv, &event.res));
                self.metrics.view_sizes.push(view.log().len() as u64);
                self.req_counter += 1;
                let req = self.req_counter;
                let writes: Vec<_> = (self.targets(obj, req, need.max(1), false).into_iter())
                    .map(|r| (r, self.write_msg(obj, req, &entry, Some(r))))
                    .collect();
                let txn = self.current.as_mut().expect("txn in progress");
                txn.phases.insert(
                    req,
                    Phase::Writing {
                        obj,
                        event,
                        entry,
                        acks: BTreeSet::new(),
                        retries: 0,
                        since: ctx.now(),
                        started,
                    },
                );
                ctx.trace(TraceAction::PhaseStart {
                    obj: u64::from(obj.0),
                    req,
                    phase: PhaseKind::Write,
                });
                for (r, msg) in writes {
                    self.send_msg(ctx, r, msg);
                }
                ctx.set_timer(self.cfg.op_timeout, req);
                if need == 0 || self.cfg.skip_final_ack {
                    // The injected bug: declare the write complete the
                    // moment it leaves, without a single ack — the commit
                    // can now outrun its own entries.
                    self.op_complete(ctx, req);
                }
            }
        }
    }

    fn op_complete<IO: Io<Msg<S::Inv, S::Res>> + ?Sized>(&mut self, ctx: &mut IO, req: u64) {
        let Some(txn) = &mut self.current else { return };
        let Some(Phase::Writing {
            obj,
            event,
            since,
            started,
            ..
        }) = txn.phases.remove(&req)
        else {
            return;
        };
        self.views.park(obj);
        self.metrics.final_rt.push(ctx.now() - since);
        self.metrics.op_latency.push(ctx.now() - started);
        ctx.trace(TraceAction::PhaseEnd {
            obj: u64::from(obj.0),
            req,
            phase: PhaseKind::Write,
            rtt: ctx.now() - since,
        });
        self.stats.ops_completed += 1;
        self.records.push(Record::Op {
            t: ctx.now(),
            action: txn.action,
            obj,
            event,
        });
        txn.completed += 1;
        if txn.completed < self.txns[self.cursor].ops.len() {
            self.pump(ctx);
        } else if self.cfg.commit_delay == 0 {
            self.commit_txn(ctx);
        } else {
            ctx.set_timer(self.cfg.commit_delay, TOKEN_COMMIT);
        }
    }

    fn commit_txn<IO: Io<Msg<S::Inv, S::Res>> + ?Sized>(&mut self, ctx: &mut IO) {
        let cts = self.fresh_ts(ctx);
        let Some(txn) = self.current.take() else {
            return;
        };
        self.records.push(Record::Commit {
            t: cts.counter,
            action: txn.action,
        });
        ctx.trace(TraceAction::Commit {
            action: u64::from(txn.action.0),
        });
        // The write manifest: entries appended per object. Repositories
        // fold a committed action into a checkpoint only once they hold
        // all of its entries; this is how they know the count.
        let entries: Vec<(ObjId, u32)> =
            txn.own.iter().map(|(o, v)| (*o, v.len() as u32)).collect();
        self.resolve(ctx, txn.action, ActionOutcome::Committed(cts), entries);
        self.stats.committed += 1;
        self.cursor += 1;
        ctx.set_timer(self.cfg.think_time.max(1), TOKEN_KICK);
    }

    /// Decides `action`: remembers the outcome, tells every repository, and
    /// hands the resolution to frontier repair.
    fn resolve<IO: Io<Msg<S::Inv, S::Res>> + ?Sized>(
        &mut self,
        ctx: &mut IO,
        action: ActionId,
        outcome: ActionOutcome,
        entries: Vec<(ObjId, u32)>,
    ) {
        self.known.insert(action, outcome);
        for r in self.cfg.repos.clone() {
            self.send_msg(
                ctx,
                r,
                Msg::Resolve {
                    action,
                    outcome,
                    entries: entries.clone(),
                },
            );
        }
        self.track_resolve(ctx, action, outcome, entries);
    }

    /// Records a just-broadcast resolution for retransmission and arms the
    /// repair timer. No-op unless frontier repair (`resolve_retransmit` +
    /// `status_gc`) is configured.
    fn track_resolve<IO: Io<Msg<S::Inv, S::Res>> + ?Sized>(
        &mut self,
        ctx: &mut IO,
        action: ActionId,
        outcome: ActionOutcome,
        entries: Vec<(ObjId, u32)>,
    ) {
        let Some(period) = self.cfg.resolve_retransmit else {
            return;
        };
        if !self.cfg.status_gc {
            return;
        }
        self.pending_resolves
            .insert(action_parts(action).1, (action, outcome, entries));
        if !self.retransmit_armed {
            ctx.set_timer(period.max(1), TOKEN_RETRANSMIT);
            self.retransmit_armed = true;
        }
    }

    fn abort_txn<IO: Io<Msg<S::Inv, S::Res>> + ?Sized>(&mut self, ctx: &mut IO, cause: AbortCause) {
        let Some(txn) = self.current.take() else {
            return;
        };
        for obj in std::mem::take(&mut self.views.live) {
            self.views.park(obj);
        }
        self.records.push(Record::Abort {
            t: ctx.now(),
            action: txn.action,
        });
        ctx.trace(TraceAction::Abort {
            action: u64::from(txn.action.0),
            cause,
        });
        self.resolve(ctx, txn.action, ActionOutcome::Aborted, Vec::new());
        match cause {
            AbortCause::Conflict => self.stats.aborted_conflict += 1,
            AbortCause::Unavailable => self.stats.aborted_unavailable += 1,
            AbortCause::StaleEpoch => self.stats.stale_retries += 1,
        }
        // Stale-epoch aborts retry for free: the transaction did nothing
        // wrong, the ground shifted under it. Other aborts consume the
        // configured retry budget.
        let budget = match cause {
            AbortCause::StaleEpoch => Some(txn.attempts_left),
            _ if txn.attempts_left > 0 => Some(txn.attempts_left - 1),
            _ => None,
        };
        if let Some(left) = budget {
            // Re-run the same transaction as a fresh action after a
            // randomized exponential backoff (deterministic per run via
            // the simulation RNG) — symmetric deterministic delays livelock
            // under contention.
            self.retry_pending = Some(left);
            let attempt = self.cfg.txn_retries.saturating_sub(left);
            let window = 1u64 << attempt.min(5);
            let jitter = ctx.rand_below(window.max(1));
            let backoff = self.cfg.think_time.max(1) * (1 + jitter) + u64::from(ctx.me() % 7);
            ctx.set_timer(backoff, TOKEN_KICK);
        } else {
            self.cursor += 1;
            ctx.set_timer(self.cfg.think_time.max(1), TOKEN_KICK);
        }
    }

    /// Handles one delivered message, then flushes any batched sends it
    /// produced (the end-of-event flush boundary).
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
                // Unwrap a batch envelope: the payloads apply in order, as
                // if delivered back-to-back in one event.
                for m in msgs {
                    self.handle_inner(ctx, from, m);
                }
            }
            Msg::LogReply { obj, req, delta } => {
                self.metrics.log_entries_shipped += delta.entries.len() as u64;
                self.metrics.reply_payload.push(delta.payload_entries());
                // Advance the mirror first, even for stale replies — the
                // data was shipped for a frontier this mirror announced,
                // and dropping it would desynchronize the frontier.
                let gc = self.cfg.compact_logs;
                let view = (self.views.of.entry(obj)).or_insert_with(|| View::new(gc));
                if !self.cfg.delta_shipping {
                    view.replace(from, &delta);
                } else if !view.advance(from, &delta) {
                    // Cut against a mirror since forgotten: nothing here
                    // can interpret it, so it is no reply at all.
                    return;
                }
                let assembled = {
                    let Some(txn) = &mut self.current else { return };
                    let Some(Phase::Reading { inv, replied, .. }) = txn.phases.get_mut(&req) else {
                        return; // stale reply
                    };
                    // The mirror *is* the site's log at serving time;
                    // merging it is what merging the full reply did. The
                    // round's first reply makes the view that log, and the
                    // sites that left the object's configuration lose
                    // their columns.
                    if replied.is_empty() {
                        view.sync(from, &self.config.state(obj).members());
                        self.views.live.insert(obj);
                    } else {
                        view.join(from);
                    }
                    replied.insert(from);
                    let state = self.config.state(obj);
                    // Joint-aware: during a reconfiguration the reply set
                    // must contain an initial quorum of both configs.
                    if self.cfg.weaken_read_quorum {
                        let mut padded = replied.clone();
                        if let Some(extra) =
                            state.members().into_iter().find(|m| !padded.contains(m))
                        {
                            padded.insert(extra);
                        }
                        state.initial_ok(S::op_class(inv), &padded)
                    } else {
                        state.initial_ok(S::op_class(inv), replied)
                    }
                };
                if assembled {
                    let Some(txn) = &mut self.current else { return };
                    let Some(Phase::Reading {
                        op_idx,
                        obj,
                        inv,
                        since,
                        started,
                        ..
                    }) = txn.phases.remove(&req)
                    else {
                        return;
                    };
                    self.metrics.initial_rt.push(ctx.now() - since);
                    ctx.trace(TraceAction::PhaseEnd {
                        obj: u64::from(obj.0),
                        req,
                        phase: PhaseKind::Read,
                        rtt: ctx.now() - since,
                    });
                    txn.ready.insert(op_idx, ReadyRead { obj, inv, started });
                    self.drain_ready(ctx);
                }
            }
            Msg::WriteAck {
                obj: _,
                req,
                conflict,
            } => {
                let verdict = {
                    let Some(txn) = &mut self.current else { return };
                    let Some(Phase::Writing {
                        obj, event, acks, ..
                    }) = txn.phases.get_mut(&req)
                    else {
                        return; // stale ack
                    };
                    if let Some(with) = conflict {
                        // A reader depends on us: abort.
                        Some(Err((*obj, txn.action, with)))
                    } else {
                        acks.insert(from);
                        let ev = S::event_class(&event.inv, &event.res);
                        // Joint-aware: the ack set must contain a final
                        // quorum of every active configuration.
                        self.config.state(*obj).final_ok(ev, acks).then_some(Ok(()))
                    }
                };
                match verdict {
                    Some(Ok(())) => self.op_complete(ctx, req),
                    Some(Err((obj, action, with))) => {
                        ctx.trace(TraceAction::Conflict {
                            obj: u64::from(obj.0),
                            action: u64::from(action.0),
                            with: u64::from(with.0),
                            kind: ConflictKind::Reservation,
                        });
                        self.abort_txn(ctx, AbortCause::Conflict)
                    }
                    None => {}
                }
            }
            Msg::WriteRefused { obj, req } => {
                // The site's log no longer extends the mirror the delta
                // was cut against. Send the view whole, and forget the
                // mirror: the next read then starts from a full transfer
                // instead of a frontier the site cannot serve (one a
                // recovered site fell back below would be refused on every
                // write until its log outgrew it).
                let Some(Phase::Writing { entry, .. }) =
                    self.current.as_ref().and_then(|t| t.phases.get(&req))
                else {
                    return; // stale refusal
                };
                let whole = self.write_msg(obj, req, entry, None);
                if let Some(view) = self.views.of.get_mut(&obj) {
                    view.reset(from);
                }
                self.send_msg(ctx, from, whole);
            }
            Msg::StaleConfig { req, state } => {
                // A repository refused a request because our configuration
                // is outdated. Adopt the newer state into every shard it
                // beats, then abort and retry the affected transaction
                // under it (the retry is free: reconfiguration is not the
                // application's fault).
                if state.version() > self.config.version() {
                    ctx.trace(TraceAction::ConfigAdopt {
                        epoch: state.epoch(),
                        version: state.version(),
                    });
                }
                self.config.adopt(&state);
                let live = self
                    .current
                    .as_ref()
                    .is_some_and(|t| t.phases.contains_key(&req));
                if live {
                    self.abort_txn(ctx, AbortCause::StaleEpoch);
                }
            }
            Msg::ResolveAck { action } => {
                // A repository durably recorded one of our resolutions.
                // Once every repository acked a contiguous prefix of our
                // actions, that prefix is globally durable: advance the
                // frontier and drop its resolutions from the gossip
                // backup (no reservation can still depend on them — the
                // ack proves each repository ran `drop_reservations`).
                let (owner, seq) = action_parts(action);
                if !self.cfg.status_gc || owner != ctx.me() {
                    return;
                }
                if seq < self.durable_next {
                    return; // already durable
                }
                self.acks_by_seq.entry(seq).or_default().insert(from);
                let full: BTreeSet<ProcId> = self.cfg.repos.iter().copied().collect();
                while self
                    .acks_by_seq
                    .get(&self.durable_next)
                    .is_some_and(|s| s.is_superset(&full))
                {
                    self.acks_by_seq.remove(&self.durable_next);
                    self.durable_next += 1;
                }
                let floor = self.durable_next;
                self.known.retain(|a, _| action_parts(*a).1 >= floor);
                self.pending_resolves.retain(|s, _| *s >= floor);
            }
            // Clients ignore repository- and reconfigurer-bound messages.
            Msg::ReadLog { .. }
            | Msg::WriteLog { .. }
            | Msg::Resolve { .. }
            | Msg::Install { .. }
            | Msg::InstallAck { .. }
            | Msg::SyncReq => {}
        }
    }

    /// Handles a timer, then flushes any batched sends it produced.
    pub fn tick<IO: Io<Msg<S::Inv, S::Res>> + ?Sized>(&mut self, ctx: &mut IO, token: u64) {
        self.tick_inner(ctx, token);
        self.flush_batch(ctx);
    }

    fn tick_inner<IO: Io<Msg<S::Inv, S::Res>> + ?Sized>(&mut self, ctx: &mut IO, token: u64) {
        if token == TOKEN_COMMIT {
            // The commit decision, delayed past the last operation.
            if self.current.as_ref().is_some_and(|t| {
                t.phases.is_empty()
                    && t.ready.is_empty()
                    && t.completed >= self.txns[self.cursor].ops.len()
            }) {
                self.commit_txn(ctx);
            }
            return;
        }
        if token == TOKEN_FLUSH {
            // Window flush: everything queued leaves now.
            self.flush_scheduled = false;
            if let Some(b) = &mut self.batcher {
                b.flush(ctx);
            }
            return;
        }
        if token == TOKEN_KICK {
            if self.current.is_none() {
                if let Some(left) = self.retry_pending.take() {
                    // Restart the current (aborted) transaction.
                    self.metrics.txn_reruns += 1;
                    self.begin_txn(ctx, left);
                } else {
                    self.start_next_txn(ctx);
                }
            }
            return;
        }
        if token == TOKEN_RETRANSMIT {
            // Frontier repair: re-send every pending resolution to exactly
            // the repositories whose ack is still missing. Safe because
            // `Resolve` application is idempotent and repositories re-ack
            // every receipt (see DESIGN §3.17).
            self.retransmit_armed = false;
            let floor = self.durable_next;
            self.pending_resolves.retain(|s, _| *s >= floor);
            if self.pending_resolves.is_empty() {
                self.stall_streak = 0;
                return;
            }
            if self.durable_next == self.frontier_at_last_fire {
                self.metrics.frontier_stalls += 1;
                self.stall_streak += 1;
            } else {
                self.stall_streak = 0;
            }
            self.frontier_at_last_fire = self.durable_next;
            if self.stall_streak >= RETRANSMIT_GIVE_UP {
                // The missing repository is not coming back; stop repairing
                // so the process can quiesce. GC stays stalled from here —
                // a liveness sacrifice, never a safety one.
                self.pending_resolves.clear();
                return;
            }
            let full: BTreeSet<ProcId> = self.cfg.repos.iter().copied().collect();
            let resends: Vec<(PendingResolve, Vec<ProcId>)> = self
                .pending_resolves
                .iter()
                .map(|(seq, (a, o, e))| {
                    let missing: Vec<ProcId> = match self.acks_by_seq.get(seq) {
                        Some(acked) => full
                            .iter()
                            .copied()
                            .filter(|r| !acked.contains(r))
                            .collect(),
                        None => full.iter().copied().collect(),
                    };
                    ((*a, *o, e.clone()), missing)
                })
                .collect();
            for ((action, outcome, entries), missing) in resends {
                for r in missing {
                    self.metrics.resolve_retransmits += 1;
                    self.send_msg(
                        ctx,
                        r,
                        Msg::Resolve {
                            action,
                            outcome,
                            entries: entries.clone(),
                        },
                    );
                }
            }
            let period = self.cfg.resolve_retransmit.unwrap_or(1).max(1);
            ctx.set_timer(period, TOKEN_RETRANSMIT);
            self.retransmit_armed = true;
            return;
        }
        // Phase timeout: if the token matches a live request, retry it —
        // whole, to every member — or give up.
        let Some(txn) = &mut self.current else { return };
        let (retries, phase) = match txn.phases.get_mut(&token) {
            Some(Phase::Reading { retries, .. }) => (retries, PhaseKind::Read),
            Some(Phase::Writing { retries, .. }) => (retries, PhaseKind::Write),
            None => return, // stale timer
        };
        *retries += 1;
        if *retries > self.cfg.max_phase_retries {
            return self.abort_txn(ctx, AbortCause::Unavailable);
        }
        self.metrics.phase_retries += 1;
        ctx.trace(TraceAction::PhaseRetry { req: token, phase });
        let Some(Phase::Writing { obj, entry, .. }) =
            self.current.as_ref().and_then(|t| t.phases.get(&token))
        else {
            return self.send_reads(ctx, token, 0, true);
        };
        let (obj, whole) = (*obj, self.write_msg(*obj, token, entry, None));
        for r in self.targets(obj, token, 0, true) {
            self.send_msg(ctx, r, whole.clone());
        }
        ctx.set_timer(self.cfg.op_timeout, token);
    }

    /// Kick off the first transaction.
    pub fn start<IO: Io<Msg<S::Inv, S::Res>> + ?Sized>(&mut self, ctx: &mut IO) {
        // Stagger client start times slightly for realism.
        ctx.set_timer(1 + u64::from(ctx.me() % 5), TOKEN_KICK);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{LogDelta, ObjectLog};
    use quorumcc_core::DependencyRelation;
    use quorumcc_model::testtypes::{QInv, QRes, TestQueue};
    use quorumcc_sim::{CollectIo, Input, Output};

    fn client(fanout: Fanout, repos: u32) -> Client<TestQueue> {
        let thresholds = quorumcc_quorum::ThresholdAssignment::new(repos);
        client_with(fanout, thresholds, Vec::new())
    }

    fn client_with(
        fanout: Fanout,
        thresholds: quorumcc_quorum::ThresholdAssignment,
        txns: Vec<Transaction<QInv>>,
    ) -> Client<TestQueue> {
        let repos = thresholds.sites();
        let cfg = ClientConfig {
            protocol: crate::protocol::Protocol::new(
                crate::protocol::Mode::Hybrid,
                DependencyRelation::new(),
            ),
            thresholds,
            repos: (0..repos).collect(),
            op_timeout: 100,
            max_phase_retries: 1,
            think_time: 5,
            commit_delay: 0,
            txn_retries: 0,
            propagate_views: true,
            fanout,
            delta_shipping: true,
            compact_logs: false,
            weaken_read_quorum: false,
            skip_final_ack: false,
            shards: 1,
            batch: 1,
            batch_window: 0,
            shard_thresholds: Vec::new(),
            status_gc: false,
            resolve_retransmit: None,
        };
        Client::new(cfg, txns)
    }

    #[test]
    fn broadcast_targets_everyone() {
        let c = client(Fanout::Broadcast, 5);
        assert_eq!(c.targets(ObjId(0), 3, 2, false), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn narrow_targets_rotate_by_request() {
        let c = client(Fanout::Narrow, 5);
        assert_eq!(c.targets(ObjId(0), 0, 2, false), vec![0, 1]);
        assert_eq!(c.targets(ObjId(0), 1, 2, false), vec![1, 2]);
        assert_eq!(c.targets(ObjId(0), 4, 2, false), vec![4, 0]);
        // Fallback broadens to everyone.
        assert_eq!(c.targets(ObjId(0), 4, 2, true), vec![0, 1, 2, 3, 4]);
        // Requests never exceed the cluster.
        assert_eq!(c.targets(ObjId(0), 0, 99, false).len(), 5);
    }

    #[test]
    fn fresh_client_has_no_records_or_stats() {
        let c = client(Fanout::Broadcast, 3);
        assert!(c.records().is_empty());
        assert_eq!(c.stats(), ClientStats::default());
    }

    type TestIo = CollectIo<Msg<QInv, QRes>>;

    /// Everything `c` sent since the last call.
    fn sent(io: &mut TestIo) -> Vec<Msg<QInv, QRes>> {
        (io.take_outputs().into_iter())
            .filter_map(|out| match out {
                Output::Send { msg, .. } => Some(msg),
                Output::SetTimer { .. } => None,
            })
            .collect()
    }

    /// A one-site client with two `Enq`s to run, brought to the point
    /// where its first write — cut against a mirror of one foreign entry
    /// at version 5 — has just left. Returns the write's request id.
    fn client_awaiting_its_first_ack() -> (Client<TestQueue>, TestIo, u64) {
        let mut thresholds = quorumcc_quorum::ThresholdAssignment::new(1);
        for ev in TestQueue::event_classes() {
            thresholds.set_final(ev, 1);
        }
        let enq = |x| Transaction {
            ops: vec![(ObjId(0), QInv::Enq(x))],
        };
        let mut c = client_with(Fanout::Broadcast, thresholds, vec![enq(1), enq(2)]);
        let mut io: TestIo = CollectIo::new(7, 1);
        io.set_now(10);
        c.tick(&mut io, TOKEN_KICK);
        let [Msg::ReadLog { req, since: 0, .. }] = sent(&mut io)[..] else {
            panic!("expected the first read, from scratch");
        };
        let at = Timestamp {
            counter: 3,
            node: 9,
        };
        let foreign = LogEntry {
            ts: at,
            action: ActionId(900_000),
            begin_ts: at,
            event: Event::new(QInv::Enq(9), QRes::Ok),
        };
        let delta = LogDelta {
            base: 0,
            head: 5,
            full: true,
            entries: vec![foreign],
            statuses: Vec::new(),
            checkpoint: None,
        };
        c.handle(
            &mut io,
            0,
            Msg::LogReply {
                obj: ObjId(0),
                req,
                delta,
            },
        );
        let writes = sent(&mut io);
        let [Msg::WriteLog {
            req, log, base: 5, ..
        }] = &writes[..]
        else {
            panic!("expected one write cut against version 5, got {writes:?}");
        };
        assert_eq!(
            log.len(),
            1,
            "the fresh entry alone; the mirrored one stays home"
        );
        (c, io, *req)
    }

    #[test]
    fn a_refused_delta_is_answered_with_the_whole_view_and_the_mirror_forgotten() {
        let (mut c, mut io, req) = client_awaiting_its_first_ack();
        let obj = ObjId(0);
        c.handle(&mut io, 0, Msg::WriteRefused { obj, req });
        let resent = sent(&mut io);
        let [Msg::WriteLog {
            req: again,
            log,
            entry: Some(_),
            base: 0,
            ..
        }] = &resent[..]
        else {
            panic!("expected the whole view, got {resent:?}");
        };
        assert_eq!((*again, log.len()), (req, 2), "same request, whole view");
        // A second refusal of the same request gets the same answer — a
        // delta never goes out twice.
        c.handle(&mut io, 0, Msg::WriteRefused { obj, req });
        assert!(matches!(sent(&mut io)[..], [Msg::WriteLog { base: 0, .. }]));
        // The mirror is gone: the next read asks for everything.
        c.handle(
            &mut io,
            0,
            Msg::WriteAck {
                obj,
                req,
                conflict: None,
            },
        );
        sent(&mut io);
        io.set_now(2_000);
        c.tick(&mut io, TOKEN_KICK);
        assert!(matches!(sent(&mut io)[..], [Msg::ReadLog { since: 0, .. }]));
    }

    #[test]
    fn a_timed_out_write_is_retried_with_the_whole_view() {
        let (mut c, mut io, req) = client_awaiting_its_first_ack();
        c.tick(&mut io, req);
        let retried = sent(&mut io);
        let [Msg::WriteLog { log, base: 0, .. }] = &retried[..] else {
            panic!("expected the whole view, got {retried:?}");
        };
        assert_eq!(log.len(), 2);
    }

    /// Two clients and three repositories under a small event queue, and a
    /// twin of the first client fed exactly what the first is fed, with
    /// `reset` applied to the twin before every input: each input must
    /// leave both with the same outputs and the same `Debug`, and `check`
    /// sees the first client after each of its inputs. Returns the first
    /// client, its run finished.
    fn twin_run(
        reset: impl Fn(&mut Client<TestQueue>),
        check: impl Fn(&Client<TestQueue>, &Input<Msg<QInv, QRes>>),
    ) -> Client<TestQueue> {
        use crate::cluster::Node;
        use crate::protocol::Mode;
        use crate::repository::Repository;
        use quorumcc_model::spec::ExploreBounds;
        use quorumcc_sim::Driver as _;

        let bounds = ExploreBounds {
            depth: 4,
            ..ExploreBounds::default()
        };
        let rel = quorumcc_core::minimal_static_relation::<TestQueue>(bounds).relation;
        let mut thresholds = quorumcc_quorum::ThresholdAssignment::new(3);
        for op in TestQueue::op_classes() {
            thresholds.set_initial(op, 2);
        }
        for ev in TestQueue::event_classes() {
            thresholds.set_final(ev, 2);
        }
        let script = |salt: u32| -> Vec<Transaction<QInv>> {
            (0..30u32)
                .map(|i| Transaction {
                    ops: (0..2)
                        .map(|k| match (i * 7 + k * 3 + salt) % 4 {
                            0 => (ObjId((i % 2) as u16), QInv::Deq),
                            x => (ObjId((x % 2) as u16), QInv::Enq((i * 4 + k) as u8)),
                        })
                        .collect(),
                })
                .collect()
        };
        let client = |me: u32| {
            let mut c = client_with(Fanout::Broadcast, thresholds.clone(), script(me));
            c.cfg.protocol = Protocol::new(Mode::Hybrid, rel.clone());
            c.cfg.txn_retries = 3;
            Node::Client(c)
        };
        let repo = || Node::Repo(Repository::new(Mode::Hybrid, rel.clone()));
        let mut nodes = [repo(), repo(), repo(), client(3), client(4)];
        let mut twin = client(3);
        let mut ios: Vec<TestIo> = (0..5).map(|me| CollectIo::new(me, 11)).collect();
        let mut twin_io: TestIo = CollectIo::new(3, 11);

        // One event queue: a message takes one to three ticks, a timer its
        // delay; ties go to whatever was scheduled first.
        type Events = (
            BTreeMap<(SimTime, u64), (ProcId, Input<Msg<QInv, QRes>>)>,
            u64,
        );
        fn schedule((events, scheduled): &mut Events, now: SimTime, me: ProcId, io: &mut TestIo) {
            for out in io.take_outputs() {
                *scheduled += 1;
                let (after, to, ev) = match out {
                    Output::Send { to, msg, .. } => {
                        (1 + (me + to) % 3, to, Input::Deliver { from: me, msg })
                    }
                    Output::SetTimer { delay, token } => {
                        (delay.max(1) as u32, me, Input::Timer { token })
                    }
                };
                events.insert((now + SimTime::from(after), *scheduled), (to, ev));
            }
        }
        let mut events = Events::default();
        events
            .0
            .extend((3..5).map(|me| ((0, me), (me as ProcId, Input::Start))));
        while let Some(((now, _), (to, ev))) = events.0.pop_first() {
            let io = &mut ios[to as usize];
            io.set_now(now);
            nodes[to as usize].handle(io, ev.clone());
            if let Node::Client(c) = &nodes[3] {
                (to == 3).then(|| check(c, &ev));
            }
            if to == 3 {
                let Node::Client(c) = &mut twin else {
                    unreachable!()
                };
                reset(c);
                twin_io.set_now(now);
                twin.handle(&mut twin_io, ev);
                assert_eq!(format!("{io:?}"), format!("{twin_io:?}"));
                assert_eq!(format!("{:?}", nodes[3]), format!("{twin:?}"));
                twin_io.take_outputs();
            }
            schedule(&mut events, now, to, io);
        }
        assert!(nodes[3].is_done() && nodes[4].is_done());
        let [_, _, _, Node::Client(c), _] = nodes else {
            unreachable!()
        };
        let stats = c.stats();
        assert!(
            stats.committed > 10 && stats.aborted_conflict > 0,
            "{stats:?}"
        );
        c
    }

    /// The twin's evaluation caches are emptied before every input, so each
    /// of its evaluations starts from nothing.
    #[test]
    fn evaluation_caches_change_nothing_a_client_says_or_shows() {
        let cached = twin_run(|c| c.evals.0.clear(), |_, _| ());
        let (asked, _, replayed) = cached.eval_counters();
        assert!(
            asked > 40 && replayed > 0,
            "the cached client never evaluated"
        );
    }

    /// The twin's view of every object no phase is on is rebuilt before
    /// every input: a blank view whose mirrors are the old one's, each
    /// opened by a full transfer of itself. Each of its read rounds then
    /// syncs a view that shares nothing with the round before. The client
    /// itself holds one log per object it has read, and no entry beyond
    /// that log's and one per key its mirrors disagree with it on.
    #[test]
    fn persistent_views_change_nothing_a_client_says_or_shows() {
        let rebuilt = std::cell::Cell::new(0);
        let read = std::cell::RefCell::new(BTreeSet::new());
        twin_run(
            |c| {
                let txn = c.current.as_ref();
                let phases = txn
                    .into_iter()
                    .flat_map(|t| t.phases.values().map(Phase::obj));
                let ready = txn
                    .into_iter()
                    .flat_map(|t| t.ready.values().map(|r| r.obj));
                let live: BTreeSet<ObjId> = phases.chain(ready).collect();
                for (_, view) in (c.views.of.iter_mut()).filter(|(o, _)| !live.contains(o)) {
                    let mut fresh = View::new(c.cfg.compact_logs);
                    for site in view.sites() {
                        let mirror = view.mirror(site).expect("a column per site");
                        assert!(fresh.advance(site, &mirror.delta_since(0)));
                    }
                    *view = fresh;
                    rebuilt.set(rebuilt.get() + 1);
                }
            },
            |c, input| {
                if let Input::Deliver {
                    msg: Msg::LogReply { obj, .. },
                    ..
                } = input
                {
                    read.borrow_mut().insert(*obj);
                }
                assert!(c.views.of.keys().eq(read.borrow().iter()));
                for view in c.views.of.values() {
                    let ts = |log: &ObjectLog<QInv, QRes>| -> BTreeSet<Timestamp> {
                        log.entries().map(|e| e.ts).collect()
                    };
                    let at = ts(view.log());
                    let mut doubted = BTreeSet::new();
                    for site in view.sites() {
                        let mirror = view.mirror(site).expect("a column per site");
                        doubted.extend(ts(mirror.log()).symmetric_difference(&at).copied());
                    }
                    assert!(view.entries_held() <= at.len() + doubted.len());
                }
            },
        );
        assert!(
            rebuilt.get() > 40,
            "the twin rebuilt {} views",
            rebuilt.get()
        );
    }
}
