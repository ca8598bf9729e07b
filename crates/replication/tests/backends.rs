//! The simulator's own guarantees, on the one stepping loop.
//!
//! [`RunBuilder::run`] steps the protocol core with the loop that serves
//! sockets, `host::run`, over the deterministic in-memory
//! `host::Loopback` in virtual time: the audited run and the served run
//! are one program. These tests hold that run to what a simulator owes:
//! contended workloads on one shared object are oracle-clean in all
//! three concurrency-control modes for Queue, PROM and FlagSet, also
//! under partitions, crashes, loss and duplication; a run reproduces
//! itself byte for byte; and the whole fault plan is honoured.
//!
//! [`RunBuilder::run`]: quorumcc_replication::RunBuilder::run

use quorumcc_adts::flagset::FlagSetInv;
use quorumcc_adts::prom::PromInv;
use quorumcc_adts::queue::QueueInv;
use quorumcc_adts::{FlagSet, Prom, Queue};
use quorumcc_core::{minimal_dynamic_relation, minimal_static_relation, DependencyRelation};
use quorumcc_model::spec::ExploreBounds;
use quorumcc_model::{Classified, Enumerable};
use quorumcc_replication::cluster::{ProtocolConfig, RunBuilder, RunReport};
use quorumcc_replication::protocol::{Mode, Protocol};
use quorumcc_replication::{Durability, ObjId, Transaction, TuningConfig};
use quorumcc_sim::{FaultPlan, NetworkConfig};

const MODES: [Mode; 3] = [Mode::StaticTs, Mode::Hybrid, Mode::Dynamic2pl];

fn bounds() -> ExploreBounds {
    ExploreBounds {
        depth: 4,
        ..ExploreBounds::default()
    }
}

/// A dependency relation valid for `mode` (majority thresholds satisfy any
/// relation, so these only need to be *well-formed*, mirroring `e2e.rs`).
fn relation<S: Classified + Enumerable>(mode: Mode) -> DependencyRelation {
    match mode {
        Mode::StaticTs | Mode::Hybrid => minimal_static_relation::<S>(bounds()).relation,
        Mode::Dynamic2pl => minimal_static_relation::<S>(bounds())
            .relation
            .union(&minimal_dynamic_relation::<S>(bounds()).relation),
    }
}

/// A 3-site cluster running `workload` under `mode`.
fn builder<S: Classified + Enumerable>(
    mode: Mode,
    workload: Vec<Vec<Transaction<S::Inv>>>,
) -> RunBuilder<S> {
    RunBuilder::<S>::new(3)
        .protocol(ProtocolConfig::new(Protocol::new(
            mode,
            relation::<S>(mode),
        )))
        .workload(workload)
}

/// [`builder`] with three clients contending for one shared object
/// ([`shared`]) with no think time, retrying the transactions a conflict
/// aborts. A `hostile` network is lossy and duplicating, with one
/// partition window and one crash window staggered so that a majority is
/// up most of the time.
fn contended<S: Classified + Enumerable>(
    mode: Mode,
    txns: &[Vec<S::Inv>],
    seed: u64,
    hostile: bool,
) -> RunBuilder<S> {
    let retrying = ProtocolConfig::new(Protocol::new(mode, relation::<S>(mode))).txn_retries(3);
    let b = builder::<S>(mode, shared(txns))
        .protocol(retrying)
        .seed(seed);
    if !hostile {
        return b;
    }
    let mut faults = FaultPlan::none();
    faults.partition([2], 5, 60).crash(1, 70, 150);
    b.network(NetworkConfig {
        drop_prob: 0.05,
        dup_prob: 0.05,
        ..NetworkConfig::default()
    })
    .faults(faults)
    .tuning(TuningConfig::default().durability(Durability::Volatile { wal: true }))
}

/// Runs `b` on the simulator.
fn simulate<S: Classified + Enumerable>(b: RunBuilder<S>) -> RunReport<S> {
    b.run().unwrap_or_else(|e| panic!("run failed: {e}"))
}

/// One transaction per `ops` entry, all on object `obj`.
fn txns_on<I: Clone>(obj: u16, txns: &[Vec<I>]) -> Vec<Transaction<I>> {
    txns.iter()
        .map(|ops| Transaction {
            ops: ops.iter().map(|i| (ObjId(obj), i.clone())).collect(),
        })
        .collect()
}

fn queue_txns() -> [Vec<QueueInv>; 3] {
    [
        vec![QueueInv::Enq(1), QueueInv::Enq(2)],
        vec![QueueInv::Deq, QueueInv::Deq],
        vec![QueueInv::Enq(1), QueueInv::Deq],
    ]
}

fn prom_txns() -> [Vec<PromInv>; 3] {
    [
        vec![PromInv::Write(7)],
        vec![PromInv::Seal],
        vec![PromInv::Read],
    ]
}

fn flagset_txns() -> [Vec<FlagSetInv>; 3] {
    [
        vec![FlagSetInv::Open],
        vec![FlagSetInv::Shift(1), FlagSetInv::Shift(2)],
        vec![FlagSetInv::Close],
    ]
}

/// Four clients, each on its own object.
fn private<I: Clone>(txns: &[Vec<I>]) -> Vec<Vec<Transaction<I>>> {
    (0..4u16).map(|c| txns_on(c, txns)).collect()
}

/// Three clients on one shared object, each starting at a different
/// point of the mix.
fn shared<I: Clone>(txns: &[Vec<I>]) -> Vec<Vec<Transaction<I>>> {
    (0..txns.len())
        .map(|c| {
            let mut mine = txns.to_vec();
            mine.rotate_left(c);
            txns_on(0, &mine)
        })
        .collect()
}

/// Whatever a [`contended`] run commits must pass the full safety oracle
/// (atomicity, no lost committed writes, ...) in every mode, on a polite
/// network and under partitions, crashes, loss and duplication alike —
/// the paper's guarantees do not depend on the transport being polite.
/// Each mode commits something over its seeds, so no oracle audits an
/// empty history (a hostile seed may livelock: under `Dynamic2pl`, seed
/// 22 spends every retry of every transaction on conflicts).
fn assert_contended_runs_are_safe<S: Classified + Enumerable>(txns: &[Vec<S::Inv>], hostile: bool) {
    let seeds: &[u64] = if hostile { &[21, 22] } else { &[7] };
    for mode in MODES {
        let mut committed = 0;
        for &seed in seeds {
            let report = simulate(contended::<S>(mode, txns, seed, hostile));
            let safety = report.safety(bounds());
            assert!(safety.is_ok(), "{mode:?}/seed {seed}: {safety}");
            let t = report.telemetry();
            committed += t.committed;
            if hostile {
                assert!(t.msgs_dropped > 0, "{mode:?}/seed {seed}: nothing dropped");
                assert_eq!(t.recoveries, 1, "{mode:?}/seed {seed}: the crash window");
            }
        }
        assert!(committed > 0, "{mode:?}: nothing committed");
    }
}

#[test]
fn queue_shared_object_runs_are_oracle_clean_in_all_modes() {
    assert_contended_runs_are_safe::<Queue>(&queue_txns(), false);
}

#[test]
fn prom_shared_object_runs_are_oracle_clean_in_all_modes() {
    assert_contended_runs_are_safe::<Prom>(&prom_txns(), false);
}

#[test]
fn flagset_shared_object_runs_are_oracle_clean_in_all_modes() {
    assert_contended_runs_are_safe::<FlagSet>(&flagset_txns(), false);
}

#[test]
fn contended_queue_loopback_runs_are_oracle_clean_under_faults() {
    assert_contended_runs_are_safe::<Queue>(&queue_txns(), true);
}

#[test]
fn contended_prom_loopback_runs_are_oracle_clean_under_faults() {
    assert_contended_runs_are_safe::<Prom>(&prom_txns(), true);
}

#[test]
fn contended_flagset_loopback_runs_are_oracle_clean_under_faults() {
    assert_contended_runs_are_safe::<FlagSet>(&flagset_txns(), true);
}

/// A run is a pure function of its configuration: the same seed
/// twice gives the same telemetry bytes and the same client records.
#[test]
fn loopback_run_reproduces_itself_byte_for_byte() {
    let run = || simulate(contended::<Queue>(Mode::Hybrid, &queue_txns(), 5, true));
    let (a, b) = (run(), run());
    assert_eq!(a.telemetry().to_json(), b.telemetry().to_json());
    assert_eq!(format!("{:?}", a.clients()), format!("{:?}", b.clients()));
    assert!(a.stats().committed > 0, "nothing committed");
}

/// With random loss off, every message the network drops is one a
/// partition severed: cross-block traffic inside the window.
#[test]
fn loopback_honours_partitions() {
    let run = |faults: FaultPlan| {
        simulate(
            builder::<Queue>(Mode::Hybrid, private(&queue_txns()))
                .faults(faults)
                .seed(3),
        )
    };
    let mut cut = FaultPlan::none();
    cut.partition([0], 0, 200);
    let (clean, severed) = (run(FaultPlan::none()), run(cut));
    assert_eq!(clean.telemetry().msgs_dropped, 0);
    assert!(
        severed.telemetry().msgs_dropped > 0,
        "the partition cut nothing"
    );
    // A majority (sites 1 and 2) stayed connected, so everything commits.
    assert_eq!(severed.stats().committed, 12);
}

/// Crash windows run on virtual time: the window opens and closes while
/// the clients are still working, and the volatile site recovers once.
#[test]
fn loopback_crash_window_fires_under_virtual_time() {
    let mut crash = FaultPlan::none();
    crash.crash(0, 10, 20);
    let report = simulate(
        builder::<Queue>(Mode::StaticTs, private(&queue_txns()))
            .faults(crash)
            .tuning(TuningConfig::default().durability(Durability::Volatile { wal: true })),
    );
    assert_eq!(report.telemetry().recoveries, 1);
    let safety = report.safety(bounds());
    assert!(safety.is_ok(), "{safety}");
    assert!(report.stats().committed > 0, "nothing committed");
}
