//! The `exp_load` harness: many lightweight sans-I/O clients against a
//! real-socket cluster.
//!
//! Topology: each cell's repositories are
//! [`Repository`](quorumcc_replication::Repository) drivers behind
//! TCP listeners on loopback, all hosted by one event-loop thread. Clients
//! are *not* threads — a small worker pool multiplexes tens to hundreds of
//! thousands of [`Client`](quorumcc_replication::Client) drivers, each a
//! few hundred bytes of protocol
//! state plus a [`CollectIo`]. Every worker opens one connection per
//! repository and tags frames with the issuing client's process id, so a
//! repository routes replies by id over the connection they arrived on.
//!
//! Hosting: the cluster comes from the same
//! [`RunBuilder::assemble`](quorumcc_replication::RunBuilder::assemble)
//! every host uses, both sides step it with the one generic loop,
//! [`quorumcc_replication::host::run`], over the two socket transports in
//! `sockets`, and [`Assembly::harvest`] reads each cell back as a
//! [`RunReport`] — so a socket run carries the same telemetry, and answers
//! to the same safety oracle, as a simulated one. This module only maps
//! [`LoadConfig`] onto the builder, derives the seeds and lends slices of
//! the nodes to the threads.
//!
//! Time: one logical tick = 1µs of wall clock, so client-recorded
//! begin→commit spans *are* latencies in microseconds. Protocol timeouts
//! are scaled accordingly ([`LoadConfig::op_timeout_ticks`]).
//!
//! Gates (see `wire.rs`): compaction and reconfiguration are off — their
//! payloads are not wire-encodable — and the workload is the Queue type.

mod config;
mod sockets;

use std::collections::HashMap;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use quorumcc_adts::queue::{QueueInv, QueueRes};
use quorumcc_adts::Queue;
use quorumcc_replication::client::Record;
use quorumcc_replication::cluster::{Assembly, ProtocolConfig, RunBuilder, TuningConfig};
use quorumcc_replication::host::{self, Clock as _, CrashScript, HostStats, WallClock};
use quorumcc_replication::protocol::Protocol;
use quorumcc_replication::types::ObjId;
use quorumcc_replication::{
    CollectIo, Durability, Fanout, LogicalHistogram, Msg, Node, RunReport, Transaction,
};
use quorumcc_sim::{splitmix64, ProcId, SimTime};

pub use config::{CrashSpec, LoadBackend, LoadConfig, LoadReport};
use sockets::{CellSockets, WorkerLinks};

type QMsg = Msg<QueueInv, QueueRes>;

/// One hosted driver with its collector, as [`host::run`] takes them.
type Hosted = (Node<Queue>, CollectIo<QMsg>);

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

/// The seed cell `cell` of a run seeded `seed` derives everything from.
fn cell_seed(seed: u64, cell: usize) -> u64 {
    seed ^ splitmix64(cell as u64 + 0x5eed)
}

/// One cell's outcome: the harvested run plus what only the socket layer
/// knows.
struct CellRun {
    report: RunReport<Queue>,
    unfinished: usize,
    reconnects: u64,
    retransmit_frames: u64,
}

/// Runs one load configuration end to end and reports SLO percentiles.
///
/// # Panics
/// Panics when the configuration is not a runnable cluster (no
/// transactions, or a relation that majority quorums do not satisfy) or a
/// loopback listener cannot be bound or configured — harness failures, not
/// protocol outcomes. Bytes read off a socket never panic: a bad frame
/// costs the connection it arrived on.
pub fn run_load(cfg: &LoadConfig) -> LoadReport {
    assert!(cfg.n_repos >= 1 && cfg.clients >= 1 && cfg.workers >= 1);
    let cells = cfg.clusters.max(1).min(cfg.clients);
    let epoch = Instant::now();
    let per = cfg.clients / cells;
    let extra = cfg.clients % cells;
    let results: Vec<CellRun> = std::thread::scope(|scope| {
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
    let mut report = LoadReport {
        mode: cfg.mode.name(),
        backend: "eventloop",
        clients: cfg.clients,
        wall: epoch.elapsed(),
        ..LoadReport::default()
    };
    let mut latency = LogicalHistogram::default();
    for cell in results {
        let t = cell.report.telemetry();
        report.committed += t.committed as usize;
        report.aborted += (t.aborted_conflict + t.aborted_unavailable) as usize;
        report.ops_committed += t.ops_completed as usize;
        report.unfinished += cell.unfinished;
        report.reconnects += cell.reconnects;
        report.retransmit_frames += cell.retransmit_frames;
        report.resolve_ack_retransmits += t.resolve_ack_retransmits;
        report.frontier_stalls += t.frontier_stalls;
        report.statuses_gcd += t.statuses_gcd;
        report.recoveries += t.recoveries;
        // Begin→commit latencies and commit times, from client records.
        for (_, records, _) in cell.report.clients() {
            let mut begins: HashMap<u32, SimTime> = HashMap::new();
            for rec in records {
                match rec {
                    Record::Begin { t, action } => {
                        begins.insert(action.0, *t);
                    }
                    Record::Commit { t, action } => {
                        if let Some(b) = begins.get(&action.0) {
                            latency.record(t.saturating_sub(*b));
                        }
                        report.commit_ticks.push(*t);
                    }
                    _ => {}
                }
            }
        }
        report.cells.push(Arc::new(cell.report));
    }
    report.commit_ticks.sort_unstable();
    let secs = report.wall.as_secs_f64().max(1e-9);
    report.txns_per_sec = report.committed as f64 / secs;
    report.ops_per_sec = report.ops_committed as f64 / secs;
    report.p50_us = latency.percentile(50.0).unwrap_or(0);
    report.p90_us = latency.percentile(90.0).unwrap_or(0);
    report.p99_us = latency.percentile(99.0).unwrap_or(0);
    report.mean_us = latency.mean().unwrap_or(0.0);
    report
}

/// Maps a cell's [`LoadConfig`] onto the builder every host assembles
/// from: majority quorums, two phase retries and two transaction retries,
/// 1 ms of think time. A scripted crash makes storage volatile without a
/// write-ahead mirror, so the victim restarts amnesiac and must catch up
/// from its peers (durability is only consulted on recovery; the other
/// repositories never notice).
fn assemble(cfg: &LoadConfig) -> Assembly<Queue> {
    let tuning = TuningConfig {
        think_time: 1000,
        max_phase_retries: 2,
        fanout: if cfg.narrow {
            Fanout::Narrow
        } else {
            Fanout::Broadcast
        },
        durability: if cfg.crash.is_some() {
            Durability::Volatile { wal: false }
        } else {
            Durability::Stable
        },
        scoped_statuses: cfg.scoped_statuses,
        status_gc: cfg.status_gc,
        resolve_retransmit: cfg.resolve_retransmit,
        ..TuningConfig::default()
    };
    RunBuilder::<Queue>::new(cfg.n_repos)
        .protocol(
            ProtocolConfig::new(Protocol::new(cfg.mode, cfg.relation.clone()))
                .op_timeout(cfg.op_timeout_ticks)
                .txn_retries(2),
        )
        .tuning(tuning)
        .workload((0..cfg.clients).map(|k| client_txns(cfg, k)).collect())
        .assemble()
        .expect("load configuration is a runnable cluster")
}

/// One cell: an `n_repos` cluster plus its worker pool, run to quiescence
/// or the deadline. The nodes stay here; the cell thread and the workers
/// each step a disjoint slice of them.
fn run_cluster(cfg: &LoadConfig) -> CellRun {
    let mut assembly = assemble(cfg);
    let mut repos: Vec<Hosted> = (0..)
        .zip(assembly.take_nodes())
        .map(|(id, node): (ProcId, _)| {
            let seed = if id < cfg.n_repos {
                u64::from(id) + 1
            } else {
                cfg.seed ^ splitmix64(u64::from(id))
            };
            (node, CollectIo::new(id, seed))
        })
        .collect();
    // The clients get a block of their own: with both sides' nodes in one
    // allocation the cell thread and the worker contend for it (measured on
    // the benchmark's 8192-object workload: 4.5% less throughput and as
    // much more CPU per transaction).
    let mut clients = repos.split_off(cfg.n_repos as usize);
    let stop = AtomicBool::new(false);
    let clock = WallClock::new(Instant::now(), 1);

    // Bind every repository listener up front so workers can connect
    // immediately.
    let listeners: Vec<TcpListener> = (0..cfg.n_repos)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind loopback"))
        .collect();
    let ports: Vec<u16> = listeners
        .iter()
        .map(|l| l.local_addr().expect("bound listener").port())
        .collect();

    let chunk = cfg.clients.div_ceil(cfg.workers);
    let (mut ran, mut reconnects, mut retransmit_frames) = (Vec::new(), 0, 0);
    std::thread::scope(|scope| {
        let (stop, clock, ports, repos) = (&stop, &clock, &ports, &mut repos[..]);
        let cell = scope.spawn(move || cell_main(cfg, repos, listeners, stop, clock));
        let workers: Vec<_> = clients
            .chunks_mut(chunk)
            .enumerate()
            .map(|(w, slice)| scope.spawn(move || worker_main(cfg, w * chunk, slice, ports, clock)))
            .collect();
        for h in workers {
            let (stats, links) = h.join().expect("worker panicked");
            ran.push(stats);
            reconnects += links.0;
            retransmit_frames += links.1;
        }
        stop.store(true, Ordering::SeqCst);
        ran.push(cell.join().expect("cell host panicked"));
    });
    CellRun {
        unfinished: cfg.clients - ran.iter().map(|r| r.done).sum::<usize>(),
        report: assembly.harvest(
            repos.iter().chain(&clients).map(|(node, _)| node),
            HostStats::sim_stats(&ran, clock.now()),
            None,
        ),
        reconnects,
        retransmit_frames,
    }
}

/// A cell's repository side: every repository driver on one thread, over
/// [`CellSockets`].
///
/// A scripted [`LoadConfig::crash`] kills one co-hosted repository for a
/// wall-clock window; it restarts amnesiac and catches up through
/// `SyncReq` state transfer over the cell's local queue before serving
/// quorums again.
fn cell_main(
    cfg: &LoadConfig,
    repos: &mut [Hosted],
    listeners: Vec<TcpListener>,
    stop: &AtomicBool,
    clock: &WallClock,
) -> HostStats {
    let script = CrashScript::new(cfg.crash.map(|spec| {
        let from = spec.at_ms.saturating_mul(1000);
        (
            spec.repo.min(repos.len() - 1),
            from,
            from.saturating_add(spec.down_ms.saturating_mul(1000)),
        )
    }));
    let mut sockets = CellSockets::new(listeners, cfg.fault_profile, cfg.seed);
    host::run(
        repos,
        &mut sockets,
        clock,
        script,
        |_| 0,
        |_, _| stop.load(Ordering::Relaxed),
    )
}

/// One worker: hosts the client drivers in `clients` (the cell's clients
/// from index `first` on) over [`WorkerLinks`], one supervised TCP
/// connection per repository. Returns the loop's counters and the links'
/// `(reconnects, retransmit_frames)`.
fn worker_main(
    cfg: &LoadConfig,
    first: usize,
    clients: &mut [Hosted],
    ports: &[u16],
    clock: &WallClock,
) -> (HostStats, (u64, u64)) {
    let count = clients.len();
    let base_id = cfg.n_repos + first as ProcId;
    let mut links = WorkerLinks::connect(
        ports,
        base_id..base_id + count as ProcId,
        cfg.seed ^ ((first as u64) << 32),
        cfg.fault_profile,
    );
    // Client k starts `k/count` of the way through the ramp window (all
    // at once when the ramp is zero).
    let t0 = clock.now();
    let ramp_us = cfg.ramp.as_micros() as u64;
    let deadline = SimTime::try_from(cfg.deadline.as_micros()).unwrap_or(SimTime::MAX);
    let ran = host::run(
        clients,
        &mut links,
        clock,
        CrashScript::none(),
        |k| t0 + ramp_us * k as u64 / count as u64,
        |done, now| done == count || now >= deadline,
    );
    (ran, links.shutdown())
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
