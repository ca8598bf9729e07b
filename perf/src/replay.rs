//! The traced pass: a single-threaded, in-process replay of one round.
//!
//! The same seeded clients and three `Repository<Queue>` drivers the
//! socket hosts run are pumped here through `CollectIo`, and every message
//! takes the hosts' own path — `wire::encode` → `tcp::write_frame` →
//! `tcp::drain_frames` (repository side, as the event loop reads) or
//! `tcp::read_frame` (client side, as the worker's readers do) →
//! `wire::decode` → `Repository::handle` / `Client::handle` /
//! `Client::tick` — with one span around each call. Bytes cross an
//! in-memory pipe instead of a socket and time is a virtual microsecond
//! clock (a fixed delay per hop), so the replay is a pure function of the
//! seed: its counts repeat bit for bit, and its span times measure the
//! layers without syscalls, polling or thread hand-off.
//!
//! This host exists only for the benchmark and should collapse onto the
//! generic `host::run` + in-memory `Transport` when that ROADMAP item
//! lands. `splitmix64`, `cell_seed`, `majority_thresholds`, `client_txns`
//! and `client_config` restate private functions of `quorumcc_net::load`,
//! which the change that defines the benchmark may not edit; keep them in
//! step by hand until `load` exports them.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::time::{Duration, Instant};

use quorumcc_adts::queue::{QueueInv, QueueRes};
use quorumcc_adts::Queue;
use quorumcc_model::spec::ExploreBounds;
use quorumcc_model::Classified;
use quorumcc_net::tcp::{drain_frames, read_frame, write_frame};
use quorumcc_net::{wire, LoadConfig};
use quorumcc_quorum::ThresholdAssignment;
use quorumcc_replication::client::Record;
use quorumcc_replication::history::{assemble, satisfies};
use quorumcc_replication::types::{ActionOutcome, ObjId, ObjectLog};
use quorumcc_replication::{
    Client, ClientConfig, CollectIo, Config, ConfigState, Fanout, Msg, Output, Protocol,
    RepoCounters, Repository, Transaction,
};
use quorumcc_sim::{ProcId, SimTime};

use crate::trace::{Tracer, NONE};

type QMsg = Msg<QueueInv, QueueRes>;
type QLog = ObjectLog<QueueInv, QueueRes>;

/// Virtual delay of one message hop. A transaction takes about six hops,
/// so it stays in flight several milliseconds — the order of the socket
/// host's measured latency — and as many transactions overlap here as do
/// there.
const HOP_US: SimTime = 1_000;

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The seed `run_load` hands its only cell.
fn cell_seed(seed: u64) -> u64 {
    seed ^ splitmix64(0x5eed)
}

fn majority_thresholds(n: u32) -> ThresholdAssignment {
    let maj = n / 2 + 1;
    let mut ta = ThresholdAssignment::new(n);
    for op in Queue::op_classes() {
        ta.set_initial(op, maj);
    }
    for ev in Queue::event_classes() {
        ta.set_final(ev, maj);
    }
    ta
}

fn client_txns(cfg: &LoadConfig, seed: u64, client_idx: usize) -> Vec<Transaction<QueueInv>> {
    let mut state = seed ^ splitmix64(client_idx as u64 + 1);
    let mut draw = || {
        state = splitmix64(state);
        state
    };
    (0..cfg.txns_per_client)
        .map(|_| Transaction {
            ops: (0..cfg.ops_per_txn)
                .map(|_| {
                    let obj = ObjId((draw() % u64::from(cfg.objects.max(1))) as u16);
                    let deq_cut = (cfg.deq_fraction.clamp(0.0, 1.0) * 1000.0) as u64;
                    let inv = if draw() % 1000 < deq_cut {
                        QueueInv::Deq
                    } else {
                        QueueInv::Enq((draw() % 100) as u32)
                    };
                    (obj, inv)
                })
                .collect(),
        })
        .collect()
}

fn client_config(cfg: &LoadConfig, repos: Vec<ProcId>) -> ClientConfig {
    ClientConfig {
        protocol: Protocol::new(cfg.mode, cfg.relation.clone()),
        thresholds: majority_thresholds(cfg.n_repos),
        repos,
        op_timeout: cfg.op_timeout_ticks,
        max_phase_retries: 2,
        think_time: 1000,
        commit_delay: 0,
        txn_retries: 2,
        propagate_views: true,
        fanout: if cfg.narrow {
            Fanout::Narrow
        } else {
            Fanout::Broadcast
        },
        delta_shipping: true,
        compact_logs: false,
        weaken_read_quorum: false,
        skip_final_ack: false,
        shards: 1,
        batch: 1,
        batch_window: 0,
        shard_thresholds: Vec::new(),
        status_gc: cfg.status_gc.is_some(),
        resolve_retransmit: cfg.resolve_retransmit,
    }
}

/// Exact counts taken where the bytes are made.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireCounts {
    pub msgs: u64,
    pub frames: u64,
    pub bytes: u64,
    pub logreply_msgs: u64,
    pub logreply_bytes: u64,
    pub writelog_msgs: u64,
    pub writelog_bytes: u64,
}

/// What one replay produced.
#[derive(Debug)]
pub struct Replay {
    pub attempted: usize,
    pub committed: usize,
    /// Transaction attempts begun (first runs and re-runs).
    pub attempts: u64,
    pub phase_retries: u64,
    pub wall: Duration,
    pub wire: WireCounts,
    /// Counters summed over the three repositories (`status_table_peak`
    /// is their maximum).
    pub repo: RepoCounters,
    /// A copy of the longest object log any repository holds.
    pub longest_log: QLog,
    pub tracer: Tracer,
}

enum What {
    /// A framed message in flight to `to`, with the transaction it serves
    /// and the span that emitted it.
    Frame {
        to: ProcId,
        bytes: Vec<u8>,
        txn: u32,
        cause: u32,
    },
    Timer {
        node: ProcId,
        token: u64,
    },
}

/// A queued event; the heap pops the earliest `(due, seq)` first.
struct Event {
    due: SimTime,
    seq: u64,
    what: What,
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.due, other.seq).cmp(&(self.due, self.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}

impl Eq for Event {}

struct Host {
    n_repos: u32,
    now: SimTime,
    seq: u64,
    heap: BinaryHeap<Event>,
    // Sends between repositories skip the wire, as in the event loop.
    local: VecDeque<(ProcId, ProcId, QMsg)>,
    frames_in_flight: usize,
    wire: WireCounts,
    tracer: Tracer,
}

/// The transaction a message names, if it names one.
fn action_of(msg: &QMsg) -> Option<u32> {
    match msg {
        Msg::ReadLog { action, .. } | Msg::Resolve { action, .. } | Msg::ResolveAck { action } => {
            Some(action.0)
        }
        Msg::WriteLog { entry, .. } => entry.as_ref().map(|e| e.action.0),
        _ => None,
    }
}

fn repo_span(msg: &QMsg) -> &'static str {
    match msg {
        Msg::ReadLog { .. } => "repo.readlog",
        Msg::WriteLog { .. } => "repo.writelog",
        Msg::Resolve { .. } => "repo.resolve",
        _ => "repo.other",
    }
}

fn client_span(msg: &QMsg) -> &'static str {
    match msg {
        Msg::LogReply { .. } => "client.logreply",
        Msg::WriteAck { .. } => "client.writeack",
        Msg::ResolveAck { .. } => "client.resolveack",
        _ => "client.other",
    }
}

impl Host {
    fn push(&mut self, due: SimTime, what: What) {
        self.heap.push(Event {
            due,
            seq: self.seq,
            what,
        });
        self.seq += 1;
    }

    /// Routes what `from` just emitted: messages are encoded and framed
    /// (counted and timed) and queued one hop away, timers are queued at
    /// their due tick.
    fn dispatch(&mut self, from: ProcId, outs: Vec<Output<QMsg>>, txn: u32, cause: u32) {
        for out in outs {
            match out {
                Output::Send { to, msg, .. } => {
                    if from < self.n_repos && to < self.n_repos {
                        self.local.push_back((to, from, msg));
                        continue;
                    }
                    let txn = action_of(&msg).unwrap_or(txn);
                    let (payload, _) = self
                        .tracer
                        .time("wire.encode", txn, cause, || wire::encode(&msg));
                    let (bytes, _) = self.tracer.time("tcp.write_frame", txn, cause, || {
                        let mut frame = Vec::with_capacity(payload.len() + 16);
                        write_frame(&mut frame, from, to, &payload).expect("vec write");
                        frame
                    });
                    self.wire.msgs += 1;
                    self.wire.frames += 1;
                    self.wire.bytes += bytes.len() as u64;
                    match msg {
                        Msg::LogReply { .. } => {
                            self.wire.logreply_msgs += 1;
                            self.wire.logreply_bytes += bytes.len() as u64;
                        }
                        Msg::WriteLog { .. } => {
                            self.wire.writelog_msgs += 1;
                            self.wire.writelog_bytes += bytes.len() as u64;
                        }
                        _ => {}
                    }
                    self.frames_in_flight += 1;
                    self.push(
                        self.now + HOP_US,
                        What::Frame {
                            to,
                            bytes,
                            txn,
                            cause,
                        },
                    );
                }
                Output::SetTimer { delay, token } => {
                    self.push(self.now + delay, What::Timer { node: from, token });
                }
            }
        }
    }
}

/// Replays one round of `cfg` (faults and crashes are not replayed: the
/// pipe is lossless) and checks what it produced.
///
/// # Errors
/// A description of the first correctness check that failed.
pub fn replay(cfg: &LoadConfig, traced: bool) -> Result<Replay, String> {
    let seed = cell_seed(cfg.seed);
    let peers: Vec<ProcId> = (0..cfg.n_repos).collect();
    let mut repos: Vec<(Repository<Queue>, CollectIo<QMsg>)> = peers
        .iter()
        .map(|&r| {
            let bootstrap = Config::new(0, peers.iter().copied(), majority_thresholds(cfg.n_repos));
            let repo = Repository::new(cfg.mode, cfg.relation.clone())
                .with_config(ConfigState::Stable(bootstrap))
                .with_peers(peers.clone())
                .with_gossip(cfg.scoped_statuses, cfg.status_gc);
            (repo, CollectIo::new(r, u64::from(r) + 1))
        })
        .collect();
    let mut clients: Vec<(Client<Queue>, CollectIo<QMsg>)> = (0..cfg.clients)
        .map(|k| {
            let id = cfg.n_repos + k as ProcId;
            let c = Client::new(client_config(cfg, peers.clone()), client_txns(cfg, seed, k));
            (c, CollectIo::new(id, seed ^ splitmix64(u64::from(id))))
        })
        .collect();
    // One inbound byte buffer per repository: the single worker holds one
    // connection to each.
    let mut rbufs: Vec<Vec<u8>> = vec![Vec::new(); repos.len()];
    let mut host = Host {
        n_repos: cfg.n_repos,
        now: 0,
        seq: 0,
        heap: BinaryHeap::new(),
        local: VecDeque::new(),
        frames_in_flight: 0,
        wire: WireCounts::default(),
        tracer: Tracer::new(traced),
    };

    let t0 = Instant::now();
    for (r, (repo, io)) in repos.iter_mut().enumerate() {
        io.set_now(0);
        repo.start(io);
        host.dispatch(r as ProcId, io.take_outputs(), NONE, NONE);
    }
    for (k, (c, io)) in clients.iter_mut().enumerate() {
        io.set_now(0);
        let (_, span) = host.tracer.time("client.start", NONE, NONE, || c.start(io));
        host.dispatch(cfg.n_repos + k as ProcId, io.take_outputs(), NONE, span);
    }

    while host.frames_in_flight > 0 || clients.iter().any(|(c, _)| !c.is_done()) {
        let Some(Event { due, what, .. }) = host.heap.pop() else {
            return Err("replay stalled: clients unfinished and nothing queued".into());
        };
        host.now = due;
        let turn = host.tracer.enter("host.turn");
        match what {
            What::Frame {
                to,
                bytes,
                txn,
                cause,
            } if to < cfg.n_repos => {
                host.frames_in_flight -= 1;
                let rbuf = &mut rbufs[to as usize];
                rbuf.extend_from_slice(&bytes);
                let (frames, _) = host
                    .tracer
                    .time("tcp.drain_frames", txn, cause, || drain_frames(rbuf));
                for (from, _to, payload) in frames.map_err(|e| format!("framing: {e}"))? {
                    let (msg, _) = host
                        .tracer
                        .time("wire.decode", txn, cause, || wire::decode::<QMsg>(&payload));
                    let msg = msg.ok_or("a repository-bound frame failed to decode")?;
                    let (repo, io) = &mut repos[to as usize];
                    io.set_now(host.now);
                    let (_, span) = host
                        .tracer
                        .time(repo_span(&msg), txn, cause, || repo.handle(io, from, msg));
                    host.dispatch(to, io.take_outputs(), txn, span);
                }
            }
            What::Frame {
                to,
                bytes,
                txn,
                cause,
            } => {
                host.frames_in_flight -= 1;
                let (frame, _) = host
                    .tracer
                    .time("tcp.read_frame", txn, cause, || read_frame(&mut &bytes[..]));
                let (from, _to, payload) = frame.map_err(|e| format!("framing: {e}"))?;
                let (msg, _) = host
                    .tracer
                    .time("wire.decode", txn, cause, || wire::decode::<QMsg>(&payload));
                let msg = msg.ok_or("a client-bound frame failed to decode")?;
                let (c, io) = &mut clients[(to - cfg.n_repos) as usize];
                io.set_now(host.now);
                let (_, span) = host
                    .tracer
                    .time(client_span(&msg), txn, cause, || c.handle(io, from, msg));
                host.dispatch(to, io.take_outputs(), txn, span);
            }
            What::Timer { node, token } if node < cfg.n_repos => {
                let (repo, io) = &mut repos[node as usize];
                io.set_now(host.now);
                let (_, span) = host
                    .tracer
                    .time("repo.tick", NONE, NONE, || repo.tick(io, token));
                host.dispatch(node, io.take_outputs(), NONE, span);
            }
            What::Timer { node, token } => {
                let (c, io) = &mut clients[(node - cfg.n_repos) as usize];
                io.set_now(host.now);
                let (_, span) = host
                    .tracer
                    .time("client.tick", NONE, NONE, || c.tick(io, token));
                host.dispatch(node, io.take_outputs(), NONE, span);
            }
        }
        while let Some((to, from, msg)) = host.local.pop_front() {
            let (repo, io) = &mut repos[to as usize];
            io.set_now(host.now);
            let (_, span) = host
                .tracer
                .time("repo.other", NONE, NONE, || repo.handle(io, from, msg));
            host.dispatch(to, io.take_outputs(), NONE, span);
        }
        host.tracer.exit(turn);
    }
    let wall = t0.elapsed();

    let mut out = Replay {
        attempted: cfg.clients * cfg.txns_per_client,
        committed: 0,
        attempts: 0,
        phase_retries: 0,
        wall,
        wire: host.wire,
        repo: RepoCounters::default(),
        longest_log: QLog::new(),
        tracer: host.tracer,
    };
    for (c, _) in &clients {
        let stats = c.stats();
        out.committed += stats.committed;
        out.attempts +=
            (stats.committed + stats.aborted_conflict + stats.aborted_unavailable) as u64;
        out.phase_retries += c.metrics().phase_retries;
    }
    for (repo, _) in &repos {
        let c = repo.counters();
        out.repo.full_log_fallbacks += c.full_log_fallbacks;
        out.repo.statuses_shipped += c.statuses_shipped;
        out.repo.statuses_gcd += c.statuses_gcd;
        out.repo.status_table_peak = out.repo.status_table_peak.max(c.status_table_peak);
    }
    check(cfg, &clients, &repos, &mut out.longest_log)?;
    Ok(out)
}

/// The replay's correctness gate: every committed action's entries sit
/// with `Committed` status on at least two of the three repositories, and
/// — when the workload dequeues — every object's committed history is
/// hybrid atomic. Also picks out the longest log.
fn check(
    cfg: &LoadConfig,
    clients: &[(Client<Queue>, CollectIo<QMsg>)],
    repos: &[(Repository<Queue>, CollectIo<QMsg>)],
    longest: &mut QLog,
) -> Result<(), String> {
    use std::collections::{BTreeMap, BTreeSet};
    // (object, action) -> entries the committed action appended there.
    let mut wrote: BTreeMap<(ObjId, u32), usize> = BTreeMap::new();
    for (c, _) in clients {
        let committed: BTreeSet<u32> = c
            .records()
            .iter()
            .filter_map(|r| match r {
                Record::Commit { action, .. } => Some(action.0),
                _ => None,
            })
            .collect();
        for r in c.records() {
            if let Record::Op { action, obj, .. } = r {
                if committed.contains(&action.0) {
                    *wrote.entry((*obj, action.0)).or_default() += 1;
                }
            }
        }
    }
    let objects: BTreeSet<ObjId> = wrote.keys().map(|(o, _)| *o).collect();
    // (object, action) -> repositories holding all its entries, committed.
    let mut held: BTreeMap<(ObjId, u32), usize> = BTreeMap::new();
    for obj in &objects {
        for (repo, _) in repos {
            let log = repo.log(*obj);
            let mut entries: BTreeMap<u32, usize> = BTreeMap::new();
            for e in log.entries() {
                *entries.entry(e.action.0).or_default() += 1;
            }
            for (action, n) in entries {
                let committed = matches!(
                    log.status(quorumcc_model::ActionId(action)),
                    ActionOutcome::Committed(_)
                );
                if committed && wrote.get(&(*obj, action)) == Some(&n) {
                    *held.entry((*obj, action)).or_default() += 1;
                }
            }
            if log.len() > longest.len() {
                *longest = log;
            }
        }
    }
    let quorum = cfg.n_repos as usize / 2 + 1;
    if let Some(((obj, action), _)) = wrote
        .iter()
        .find(|(k, _)| held.get(k).copied().unwrap_or(0) < quorum)
    {
        return Err(format!(
            "committed action T{action} is not durable on a quorum for {obj}"
        ));
    }
    if cfg.deq_fraction > 0.0 {
        let per_client: Vec<(u32, &[Record<QueueInv, QueueRes>])> = clients
            .iter()
            .enumerate()
            .map(|(k, (c, _))| (cfg.n_repos + k as u32, c.records()))
            .collect();
        for obj in &objects {
            let h = assemble(&per_client, *obj);
            if !satisfies::<Queue>(cfg.mode, &h, ExploreBounds::default()) {
                return Err(format!(
                    "the committed history of {obj} is not {} atomic",
                    cfg.mode.name()
                ));
            }
        }
    }
    Ok(())
}
