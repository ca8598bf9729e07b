//! The `exp_load` harness: many lightweight sans-I/O clients against a
//! real-socket cluster.
//!
//! Topology: each cell's repositories are [`Repository`] drivers behind
//! TCP listeners on loopback, all hosted by one event-loop thread. Clients
//! are *not* threads — a small worker pool multiplexes tens to hundreds of
//! thousands of [`Client`] drivers, each a few hundred bytes of protocol
//! state plus a [`CollectIo`]. Every worker opens one connection per
//! repository and tags frames with the issuing client's process id, so a
//! repository routes replies by id over the connection they arrived on.
//!
//! Hosting: both sides are the one generic loop,
//! [`quorumcc_replication::host::run`], over the two socket transports in
//! `sockets` — this module only builds the drivers, derives their seeds
//! and harvests the report.
//!
//! Time: one logical tick = 1µs of wall clock, so client-recorded
//! begin→commit spans *are* latencies in microseconds. Protocol timeouts
//! are scaled accordingly ([`LoadConfig::op_timeout_ticks`]).
//!
//! Gates (see `wire.rs`): compaction and reconfiguration are off — their
//! payloads are not wire-encodable — and the workload is the Queue type.

mod config;
mod sockets;

use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use quorumcc_adts::queue::{QueueInv, QueueRes};
use quorumcc_adts::Queue;
use quorumcc_model::Classified;
use quorumcc_quorum::ThresholdAssignment;
use quorumcc_replication::client::Record;
use quorumcc_replication::host::{self, Clock as _, CrashScript, WallClock};
use quorumcc_replication::protocol::Protocol;
use quorumcc_replication::types::ObjId;
use quorumcc_replication::{
    Client, ClientConfig, CollectIo, Config, ConfigState, Durability, Fanout, LogicalHistogram,
    Msg, Node, Repository, Transaction,
};
use quorumcc_sim::{splitmix64, ProcId, SimTime};

pub use config::{CrashSpec, LoadBackend, LoadConfig, LoadReport};
use sockets::{CellSockets, WorkerLinks};

type QMsg = Msg<QueueInv, QueueRes>;

/// One hosted driver with its collector, as [`host::run`] takes them.
type Hosted = (Node<Queue>, CollectIo<QMsg>);

/// Majority thresholds for the Queue alphabet — the same default
/// `RunBuilder` applies.
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

/// The scripted transactions for one client: seeded Enq/Deq ops over
/// pseudorandomly assigned objects.
fn client_txns(cfg: &LoadConfig, client_idx: usize) -> Vec<Transaction<QueueInv>> {
    let mut state = cfg.seed ^ splitmix64(client_idx as u64 + 1);
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

/// What one worker hands back when its clients are done (or abandoned).
struct WorkerResult {
    committed: usize,
    aborted: usize,
    ops_committed: usize,
    unfinished: usize,
    latency: LogicalHistogram,
    reconnects: u64,
    retransmit_frames: u64,
    resolve_retransmits: u64,
    frontier_stalls: u64,
    commit_ticks: Vec<SimTime>,
}

/// Repository-side counters a cell reports once its hosts stop.
#[derive(Debug, Clone, Copy, Default)]
struct RepoSideStats {
    statuses_gcd: u64,
    recoveries: u64,
}

/// The seed cell `cell` of a run seeded `seed` derives everything from.
fn cell_seed(seed: u64, cell: usize) -> u64 {
    seed ^ splitmix64(cell as u64 + 0x5eed)
}

/// Runs one load configuration end to end and reports SLO percentiles.
///
/// # Panics
/// Panics when a loopback listener cannot be bound or configured — a
/// harness failure, not a protocol outcome. Bytes read off a socket never
/// panic: a bad frame costs the connection it arrived on.
pub fn run_load(cfg: &LoadConfig) -> LoadReport {
    assert!(cfg.n_repos >= 1 && cfg.clients >= 1 && cfg.workers >= 1);
    let cells = cfg.clusters.max(1).min(cfg.clients);
    let epoch = Instant::now();
    let per = cfg.clients / cells;
    let extra = cfg.clients % cells;
    let results: Vec<(Vec<WorkerResult>, RepoSideStats)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cells)
            .map(|cell| {
                let mut sub = cfg.clone();
                sub.clients = per + usize::from(cell < extra);
                sub.seed = cell_seed(cfg.seed, cell);
                scope.spawn(move || run_cluster(&sub))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("cell panicked"))
            .collect()
    });
    let wall = epoch.elapsed();
    let mut latency = LogicalHistogram::default();
    let (mut committed, mut aborted, mut ops_committed, mut unfinished) = (0, 0, 0, 0);
    let (mut reconnects, mut retransmit_frames) = (0u64, 0u64);
    let (mut resolve_ack_retransmits, mut frontier_stalls) = (0u64, 0u64);
    let mut repo_side = RepoSideStats::default();
    let mut commit_ticks: Vec<SimTime> = Vec::new();
    for (workers, repo) in &results {
        repo_side.statuses_gcd += repo.statuses_gcd;
        repo_side.recoveries += repo.recoveries;
        for r in workers {
            committed += r.committed;
            aborted += r.aborted;
            ops_committed += r.ops_committed;
            unfinished += r.unfinished;
            latency.merge(&r.latency);
            reconnects += r.reconnects;
            retransmit_frames += r.retransmit_frames;
            resolve_ack_retransmits += r.resolve_retransmits;
            frontier_stalls += r.frontier_stalls;
            commit_ticks.extend_from_slice(&r.commit_ticks);
        }
    }
    commit_ticks.sort_unstable();
    let secs = wall.as_secs_f64().max(1e-9);
    LoadReport {
        mode: cfg.mode.name(),
        backend: "eventloop",
        clients: cfg.clients,
        committed,
        aborted,
        ops_committed,
        unfinished,
        wall,
        txns_per_sec: committed as f64 / secs,
        ops_per_sec: ops_committed as f64 / secs,
        p50_us: latency.percentile(50.0).unwrap_or(0),
        p90_us: latency.percentile(90.0).unwrap_or(0),
        p99_us: latency.percentile(99.0).unwrap_or(0),
        mean_us: latency.mean().unwrap_or(0.0),
        reconnects,
        retransmit_frames,
        resolve_ack_retransmits,
        frontier_stalls,
        statuses_gcd: repo_side.statuses_gcd,
        recoveries: repo_side.recoveries,
        commit_ticks,
    }
}

/// One cell: an `n_repos` cluster plus its worker pool, run to quiescence
/// or the deadline.
fn run_cluster(cfg: &LoadConfig) -> (Vec<WorkerResult>, RepoSideStats) {
    let repos: Vec<ProcId> = (0..cfg.n_repos).collect();
    let stop = AtomicBool::new(false);
    let clock = WallClock::new(Instant::now(), 1);

    // Bind every repository listener up front so workers can connect
    // immediately.
    let listeners: Vec<TcpListener> = repos
        .iter()
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind loopback"))
        .collect();
    let ports: Vec<u16> = listeners
        .iter()
        .map(|l| l.local_addr().expect("bound listener").port())
        .collect();

    let chunk = cfg.clients.div_ceil(cfg.workers);
    std::thread::scope(|scope| {
        let (stop, clock, repos, ports) = (&stop, &clock, &repos, &ports);
        let cell = scope.spawn(move || cell_main(cfg, listeners, repos, stop, clock));
        let workers: Vec<_> = (0..cfg.workers)
            .map(|w| w * chunk)
            .take_while(|first| *first < cfg.clients)
            .map(|first| {
                let count = chunk.min(cfg.clients - first);
                scope.spawn(move || worker_main(cfg, first, count, ports, repos, clock))
            })
            .collect();
        let results: Vec<WorkerResult> = workers
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect();
        stop.store(true, Ordering::SeqCst);
        (results, cell.join().expect("cell host panicked"))
    })
}

/// A cell's repository side: every repository driver on one thread, over
/// [`CellSockets`].
///
/// A scripted [`LoadConfig::crash`] kills one co-hosted repository for a
/// wall-clock window; since the victim is built with volatile storage the
/// restart comes back amnesiac and catches up through `SyncReq` state
/// transfer over the cell's local queue before serving quorums again.
fn cell_main(
    cfg: &LoadConfig,
    listeners: Vec<TcpListener>,
    peers: &[ProcId],
    stop: &AtomicBool,
    clock: &WallClock,
) -> RepoSideStats {
    let victim = cfg.crash.map(|c| (c, c.repo.min(peers.len() - 1)));
    let mut repos: Vec<Hosted> = peers
        .iter()
        .map(|&r| {
            let bootstrap = Config::new(0, peers.iter().copied(), majority_thresholds(cfg.n_repos));
            let mut repo: Repository<Queue> = Repository::new(cfg.mode, cfg.relation.clone())
                .with_config(ConfigState::Stable(bootstrap))
                .with_peers(peers.to_vec())
                .with_gossip(cfg.scoped_statuses, cfg.status_gc);
            if victim.is_some_and(|(_, v)| v == r as usize) {
                // The scripted victim loses everything at the crash —
                // recovery must rebuild from peers, not from a WAL.
                repo = repo.with_durability(Durability::Volatile { wal: false });
            }
            (Node::Repo(repo), CollectIo::new(r, u64::from(r) + 1))
        })
        .collect();
    let script = CrashScript::new(victim.map(|(spec, v)| {
        let from = spec.at_ms.saturating_mul(1000);
        (
            v,
            from,
            from.saturating_add(spec.down_ms.saturating_mul(1000)),
        )
    }));
    let mut sockets = CellSockets::new(listeners, cfg.fault_profile, cfg.seed);
    host::run(
        &mut repos,
        &mut sockets,
        clock,
        script,
        |_| 0,
        |_, _| stop.load(Ordering::Relaxed),
    );

    let mut side = RepoSideStats::default();
    for (node, _) in &repos {
        if let Node::Repo(repo) = node {
            let counters = repo.counters();
            side.statuses_gcd += counters.statuses_gcd;
            side.recoveries += counters.recoveries;
        }
    }
    side
}

/// One worker: hosts `count` client drivers (global ids starting at
/// `n_repos + first`) over [`WorkerLinks`], one supervised TCP connection
/// per repository.
fn worker_main(
    cfg: &LoadConfig,
    first: usize,
    count: usize,
    ports: &[u16],
    repos: &[ProcId],
    clock: &WallClock,
) -> WorkerResult {
    let base_id = cfg.n_repos + first as ProcId;
    let mut links = WorkerLinks::connect(
        ports,
        base_id..base_id + count as ProcId,
        cfg.seed ^ ((first as u64) << 32),
        cfg.fault_profile,
    );
    let mut clients: Vec<Hosted> = (0..count)
        .map(|k| {
            let id = base_id + k as ProcId;
            let c = Client::new(
                client_config(cfg, repos.to_vec()),
                client_txns(cfg, first + k),
            );
            let io = CollectIo::new(id, cfg.seed ^ splitmix64(u64::from(id)));
            (Node::Client(c), io)
        })
        .collect();

    // Client k starts `k/count` of the way through the ramp window (all
    // at once when the ramp is zero).
    let t0 = clock.now();
    let ramp_us = cfg.ramp.as_micros() as u64;
    let deadline = SimTime::try_from(cfg.deadline.as_micros()).unwrap_or(SimTime::MAX);
    let ran = host::run(
        &mut clients,
        &mut links,
        clock,
        CrashScript::none(),
        |k| t0 + ramp_us * k as u64 / count as u64,
        |done, now| done == count || now >= deadline,
    );
    let (reconnects, retransmit_frames) = links.shutdown();

    // Harvest: stats, begin→commit latencies, and commit times from
    // client records.
    let mut latency = LogicalHistogram::default();
    let (mut committed, mut aborted, mut ops_committed) = (0, 0, 0);
    let (mut resolve_retransmits, mut frontier_stalls) = (0u64, 0u64);
    let mut commit_ticks: Vec<SimTime> = Vec::new();
    for (node, _) in &clients {
        let Node::Client(c) = node else { continue };
        let stats = c.stats();
        committed += stats.committed;
        aborted += stats.aborted_conflict + stats.aborted_unavailable;
        ops_committed += stats.ops_completed;
        let metrics = c.metrics();
        resolve_retransmits += metrics.resolve_retransmits;
        frontier_stalls += metrics.frontier_stalls;
        let mut begins: std::collections::HashMap<u32, SimTime> = std::collections::HashMap::new();
        for rec in c.records() {
            match rec {
                Record::Begin { t, action } => {
                    begins.insert(action.0, *t);
                }
                Record::Commit { t, action } => {
                    if let Some(b) = begins.get(&action.0) {
                        latency.record(t.saturating_sub(*b));
                    }
                    commit_ticks.push(*t);
                }
                _ => {}
            }
        }
    }
    WorkerResult {
        committed,
        aborted,
        ops_committed,
        unfinished: count - ran.done,
        latency,
        reconnects,
        retransmit_frames,
        resolve_retransmits,
        frontier_stalls,
        commit_ticks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The benchmark's replay (`perf/src/replay.rs`) restates these seed
    /// derivations by hand; a change here silently forks it.
    #[test]
    fn derived_seeds_are_pinned() {
        let cfg = LoadConfig {
            seed: cell_seed(1, 0),
            txns_per_client: 2,
            ops_per_txn: 1,
            objects: 256,
            deq_fraction: 0.0,
            ..LoadConfig::default()
        };
        assert_eq!(cfg.seed, 0x09f1_fd9d_03f0_a9b5);
        let ops: Vec<_> = client_txns(&cfg, 0)
            .into_iter()
            .flat_map(|t| t.ops)
            .collect();
        assert_eq!(
            ops,
            [
                (ObjId(99), QueueInv::Enq(82)),
                (ObjId(55), QueueInv::Enq(32))
            ]
        );
    }
}
