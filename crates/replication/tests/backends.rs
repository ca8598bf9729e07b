//! DES-vs-real-time-loop equivalence, and the loopback's own guarantees.
//!
//! The sans-I/O redesign promises that the protocol core is the *same
//! program* under every host. These tests hold it to that: an identical
//! workload and fault-free configuration pushed through the deterministic
//! simulator ([`RunBuilder::run`]) and through the real-time loop that
//! serves sockets, `host::run`, over the deterministic in-memory
//! `host::Loopback` ([`Assembly::run_loopback`]) must yield identical
//! per-transaction commit/abort decisions for Queue, PROM, and FlagSet in
//! all three concurrency-control modes.
//!
//! The two hosts schedule messages differently: the loopback draws the
//! DES's network fates from the run seed, but each node's `CollectIo` has
//! its own entropy stream where the DES shares one. So those workloads
//! give each client its own object and a think time longer than the
//! largest network delay — a client's next transaction never overtakes
//! its previous one's `Resolve` — and the decisions cannot depend on the
//! schedule. Beyond equivalence, a loopback run is
//! deterministic — it reproduces itself byte for byte — and honours the
//! whole fault plan, so *contended* workloads under partitions, crashes,
//! loss and duplication must pass the full safety oracle in every mode.
//!
//! [`Assembly::run_loopback`]: quorumcc_replication::Assembly::run_loopback

use quorumcc_adts::flagset::FlagSetInv;
use quorumcc_adts::prom::PromInv;
use quorumcc_adts::queue::QueueInv;
use quorumcc_adts::{FlagSet, Prom, Queue};
use quorumcc_core::{minimal_dynamic_relation, minimal_static_relation, DependencyRelation};
use quorumcc_model::spec::ExploreBounds;
use quorumcc_model::{Classified, Enumerable};
use quorumcc_replication::client::Record;
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

/// [`builder`] on one shared object ([`shared`]) over a lossy,
/// duplicating network, with one partition window and one crash window
/// staggered so that a majority is up most of the time, and retries for
/// the transactions a conflict aborts.
fn hostile<S: Classified + Enumerable>(
    mode: Mode,
    txns: &[Vec<S::Inv>],
    seed: u64,
) -> RunBuilder<S> {
    let mut faults = FaultPlan::none();
    faults.partition([2], 5, 60).crash(1, 70, 150);
    let retrying = ProtocolConfig::new(Protocol::new(mode, relation::<S>(mode))).txn_retries(3);
    builder::<S>(mode, shared(txns))
        .protocol(retrying)
        .network(NetworkConfig {
            drop_prob: 0.05,
            dup_prob: 0.05,
            ..NetworkConfig::default()
        })
        .faults(faults)
        .tuning(TuningConfig::default().durability(Durability::Volatile { wal: true }))
        .seed(seed)
}

/// Runs `b` over the loopback.
fn loopback<S: Classified + Enumerable>(b: RunBuilder<S>) -> RunReport<S> {
    b.assemble()
        .unwrap_or_else(|e| panic!("assembly failed: {e}"))
        .run_loopback()
}

/// Per-client ordered decision string: `C` for each committed transaction,
/// `A` for each abort, in record order. Timestamps are deliberately
/// ignored — entropy differs between the two hosts.
fn decisions<S: Classified + Enumerable>(report: &RunReport<S>) -> Vec<String> {
    report
        .clients()
        .iter()
        .map(|(_, records, _)| {
            records
                .iter()
                .filter_map(|r| match r {
                    Record::Commit { .. } => Some('C'),
                    Record::Abort { .. } => Some('A'),
                    _ => None,
                })
                .collect()
        })
        .collect()
}

fn run_both<S: Classified + Enumerable>(
    mode: Mode,
    workload: Vec<Vec<Transaction<S::Inv>>>,
) -> (RunReport<S>, RunReport<S>) {
    let think = TuningConfig::default().think_time(NetworkConfig::default().max_delay + 1);
    let build = || builder::<S>(mode, workload.clone()).tuning(think).seed(7);
    let des = build()
        .run()
        .unwrap_or_else(|e| panic!("{mode:?}/DES run failed: {e}"));
    (des, loopback(build()))
}

fn assert_equivalent<S: Classified + Enumerable>(
    mode: Mode,
    workload: Vec<Vec<Transaction<S::Inv>>>,
) {
    let total_txns: usize = workload.iter().map(Vec::len).sum();
    let (des, lb) = run_both::<S>(mode, workload);
    assert_eq!(
        decisions(&des),
        decisions(&lb),
        "{mode:?}: decision sequences diverge between hosts"
    );
    // Fault-free and conflict-free: both hosts must commit everything.
    assert_eq!(des.stats().committed, total_txns, "{mode:?}: DES aborts");
    assert_eq!(
        lb.stats().committed,
        total_txns,
        "{mode:?}: loopback aborts"
    );
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

#[test]
fn queue_decisions_match_in_all_modes() {
    for mode in MODES {
        assert_equivalent::<Queue>(mode, private(&queue_txns()));
    }
}

#[test]
fn prom_decisions_match_in_all_modes() {
    for mode in MODES {
        assert_equivalent::<Prom>(mode, private(&prom_txns()));
    }
}

#[test]
fn flagset_decisions_match_in_all_modes() {
    for mode in MODES {
        assert_equivalent::<FlagSet>(mode, private(&flagset_txns()));
    }
}

/// Whatever a contended loopback run under partitions, crashes, loss and
/// duplication commits must pass the full safety oracle (atomicity, no
/// lost committed writes, ...) — the paper's guarantees do not depend on
/// the transport being polite, and here the real-time loop is the host.
fn assert_contended_runs_are_safe<S: Classified + Enumerable>(txns: &[Vec<S::Inv>]) {
    for mode in MODES {
        for seed in [21, 22] {
            let report = loopback(hostile::<S>(mode, txns, seed));
            let safety = report.safety(bounds());
            assert!(safety.is_ok(), "{mode:?}/seed {seed}: {safety}");
            let t = report.telemetry();
            assert!(t.committed > 0, "{mode:?}/seed {seed}: nothing committed");
            assert!(t.msgs_dropped > 0, "{mode:?}/seed {seed}: nothing dropped");
            assert_eq!(t.recoveries, 1, "{mode:?}/seed {seed}: the crash window");
        }
    }
}

#[test]
fn contended_queue_loopback_runs_are_oracle_clean_under_faults() {
    assert_contended_runs_are_safe::<Queue>(&queue_txns());
}

#[test]
fn contended_prom_loopback_runs_are_oracle_clean_under_faults() {
    assert_contended_runs_are_safe::<Prom>(&prom_txns());
}

#[test]
fn contended_flagset_loopback_runs_are_oracle_clean_under_faults() {
    assert_contended_runs_are_safe::<FlagSet>(&flagset_txns());
}

/// A loopback run is a pure function of its configuration: the same seed
/// twice gives the same telemetry bytes and the same client records.
#[test]
fn loopback_run_reproduces_itself_byte_for_byte() {
    let run = || loopback(hostile::<Queue>(Mode::Hybrid, &queue_txns(), 5));
    let (a, b) = (run(), run());
    assert_eq!(a.telemetry().to_json(), b.telemetry().to_json());
    assert_eq!(format!("{:?}", a.clients()), format!("{:?}", b.clients()));
    assert!(a.stats().committed > 0, "nothing committed");
}

/// With random loss off, every message the loopback drops is one a
/// partition severed: cross-block traffic inside the window.
#[test]
fn loopback_honours_partitions() {
    let run = |faults: FaultPlan| {
        loopback(
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
    let report = loopback(
        builder::<Queue>(Mode::StaticTs, private(&queue_txns()))
            .faults(crash)
            .tuning(TuningConfig::default().durability(Durability::Volatile { wal: true })),
    );
    assert_eq!(report.telemetry().recoveries, 1);
    let safety = report.safety(bounds());
    assert!(safety.is_ok(), "{safety}");
    assert!(report.stats().committed > 0, "nothing committed");
}
