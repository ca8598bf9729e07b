//! Recovery-path property tests (DESIGN §3.17).
//!
//! The frontier-repair mechanism rests on two claims:
//!
//! 1. **Idempotence** — `ResolveAck` tallying is a join in the lattice of
//!    (seq → ack-set) maps: duplicated, reordered, or stale acks can never
//!    move the durable frontier backwards, only forwards. Retransmitting a
//!    `Resolve` (and receiving the extra acks it provokes) is therefore
//!    always safe.
//! 2. **Transparency** — turning the retransmitter on must not change any
//!    commit/abort decision: it only repeats messages the protocol already
//!    tolerates. The same workload run with and without frontier repair
//!    must produce identical per-client decision sequences for Queue,
//!    PROM, and FlagSet in all three concurrency-control modes.
//!
//! The first claim is exercised directly against a [`Client`] driver (the
//! frontier is client state; no cluster needed), then end-to-end under a
//! duplicating DES network. The second runs each workload twice, repair
//! off and on.

use quorumcc_adts::flagset::FlagSetInv;
use quorumcc_adts::prom::PromInv;
use quorumcc_adts::queue::{QueueInv, QueueRes};
use quorumcc_adts::{FlagSet, Prom, Queue};
use quorumcc_core::{minimal_dynamic_relation, minimal_static_relation, DependencyRelation};
use quorumcc_model::spec::ExploreBounds;
use quorumcc_model::{Classified, Enumerable};
use quorumcc_quorum::ThresholdAssignment;
use quorumcc_replication::client::Record;
use quorumcc_replication::cluster::{ProtocolConfig, RunBuilder, RunReport};
use quorumcc_replication::protocol::{Mode, Protocol};
use quorumcc_replication::types::action_id;
use quorumcc_replication::{
    Client, ClientConfig, CollectIo, Fanout, Msg, ObjId, Transaction, TuningConfig,
};
use quorumcc_sim::NetworkConfig;

fn bounds() -> ExploreBounds {
    ExploreBounds {
        depth: 4,
        ..ExploreBounds::default()
    }
}

fn relation<S: Classified + Enumerable>(mode: Mode) -> DependencyRelation {
    match mode {
        Mode::StaticTs | Mode::Hybrid => minimal_static_relation::<S>(bounds()).relation,
        Mode::Dynamic2pl => minimal_static_relation::<S>(bounds())
            .relation
            .union(&minimal_dynamic_relation::<S>(bounds()).relation),
    }
}

/// A standalone client with frontier repair on, addressed as process
/// `me` against repositories `0..repos`.
fn repair_client(me: u32, repos: u32) -> (Client<Queue>, CollectIo<Msg<QueueInv, QueueRes>>) {
    let cfg = ClientConfig {
        protocol: Protocol::new(Mode::Hybrid, DependencyRelation::new()),
        thresholds: ThresholdAssignment::new(repos),
        repos: (0..repos).collect(),
        op_timeout: 100,
        max_phase_retries: 1,
        think_time: 5,
        commit_delay: 0,
        txn_retries: 0,
        propagate_views: true,
        fanout: Fanout::Broadcast,
        delta_shipping: true,
        compact_logs: false,
        weaken_read_quorum: false,
        skip_final_ack: false,
        shards: 1,
        batch: 1,
        batch_window: 0,
        shard_thresholds: Vec::new(),
        status_gc: true,
        resolve_retransmit: Some(50),
    };
    (Client::new(cfg, Vec::new()), CollectIo::new(me, 1))
}

/// Duplicated, reordered, and stale `ResolveAck`s: the durable frontier
/// is monotone throughout and lands exactly where a single clean pass
/// would put it.
#[test]
fn frontier_never_regresses_under_duplicated_reordered_acks() {
    const ME: u32 = 7;
    const SEQS: u32 = 8;
    let (mut client, mut io) = repair_client(ME, 3);
    let mut floor = 0;
    let check = |client: &Client<Queue>, floor: &mut u32| {
        let f = client.durable_frontier_seq();
        assert!(f >= *floor, "frontier regressed: {f} < {floor}");
        *floor = f;
    };
    // Acks arrive newest-sequence-first, each delivered twice, with the
    // repository order rotated per sequence — the worst reordering a
    // lossy, retransmitting transport can produce.
    for seq in (0..SEQS).rev() {
        for r in 0..3u32 {
            let repo = (r + seq) % 3;
            for _ in 0..2 {
                client.handle(
                    &mut io,
                    repo,
                    Msg::ResolveAck {
                        action: action_id(ME, seq),
                    },
                );
                check(&client, &mut floor);
            }
        }
    }
    assert_eq!(
        client.durable_frontier_seq(),
        SEQS,
        "full prefix is durable"
    );
    // Stale re-deliveries (a retransmitted Resolve provoking fresh acks
    // for long-durable sequences) are ignored, never re-tallied.
    for seq in 0..SEQS {
        for repo in 0..3u32 {
            client.handle(
                &mut io,
                repo,
                Msg::ResolveAck {
                    action: action_id(ME, seq),
                },
            );
            check(&client, &mut floor);
        }
    }
    assert_eq!(client.durable_frontier_seq(), SEQS);
    // Acks for some *other* client's actions never touch this frontier.
    client.handle(
        &mut io,
        0,
        Msg::ResolveAck {
            action: action_id(ME + 1, SEQS + 3),
        },
    );
    assert_eq!(client.durable_frontier_seq(), SEQS);
}

/// An incomplete ack set (one repository dark) pins the frontier exactly
/// at the first un-acked sequence; the acks beyond it are tallied, not
/// lost, so the late ack releases the whole prefix at once.
#[test]
fn frontier_waits_for_every_repository_then_jumps() {
    const ME: u32 = 2;
    let (mut client, mut io) = repair_client(ME, 3);
    for seq in 0..5u32 {
        for repo in [0u32, 2] {
            client.handle(
                &mut io,
                repo,
                Msg::ResolveAck {
                    action: action_id(ME, seq),
                },
            );
        }
    }
    assert_eq!(client.durable_frontier_seq(), 0, "repo 1 never acked");
    for seq in 0..5u32 {
        client.handle(
            &mut io,
            1,
            Msg::ResolveAck {
                action: action_id(ME, seq),
            },
        );
        assert_eq!(client.durable_frontier_seq(), seq + 1);
    }
}

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

fn private_txns<I: Clone>(obj: u16, txns: &[Vec<I>]) -> Vec<Transaction<I>> {
    txns.iter()
        .map(|ops| Transaction {
            ops: ops.iter().map(|i| (ObjId(obj), i.clone())).collect(),
        })
        .collect()
}

/// Frontier repair off, then on: decisions must match each other and the
/// workload total (conflict-free, fault-free — retransmission may repeat
/// wire traffic but never changes an outcome). The think time outlasts
/// the largest network delay, so a client's next transaction never
/// overtakes its previous one's `Resolve`, which is the one way a private
/// object's transaction could abort.
fn assert_equivalent_under_repair<S: Classified + Enumerable>(
    mode: Mode,
    workload: Vec<Vec<Transaction<S::Inv>>>,
) {
    let total_txns: usize = workload.iter().map(Vec::len).sum();
    let run = |repair: bool| {
        let tuning = TuningConfig::default()
            .think_time(NetworkConfig::default().max_delay + 1)
            .scoped_statuses()
            .status_gc(2);
        RunBuilder::<S>::new(3)
            .protocol(ProtocolConfig::new(Protocol::new(
                mode,
                relation::<S>(mode),
            )))
            .tuning(if repair {
                tuning.resolve_retransmit(400)
            } else {
                tuning
            })
            .seed(7)
            .workload(workload.clone())
            .run()
            .unwrap_or_else(|e| panic!("{mode:?}/repair {repair}: run failed: {e}"))
    };
    let (plain, repair) = (run(false), run(true));
    assert_eq!(
        decisions(&plain),
        decisions(&repair),
        "{mode:?}: decision sequences diverge under retransmit"
    );
    assert_eq!(plain.stats().committed, total_txns, "{mode:?}: aborts");
    assert_eq!(
        repair.stats().committed,
        total_txns,
        "{mode:?}: aborts under retransmit"
    );
    // The repair plumbing must actually be live: statuses reach
    // durability and get collected.
    assert!(
        repair.telemetry().statuses_gcd > 0,
        "{mode:?}: status GC never ran"
    );
}

#[test]
fn queue_decisions_match_under_retransmit_in_all_modes() {
    for mode in [Mode::StaticTs, Mode::Hybrid, Mode::Dynamic2pl] {
        let workload: Vec<_> = (0..4u16)
            .map(|c| {
                private_txns(
                    c,
                    &[
                        vec![QueueInv::Enq(1), QueueInv::Enq(2)],
                        vec![QueueInv::Deq, QueueInv::Deq],
                        vec![QueueInv::Enq(1), QueueInv::Deq],
                    ],
                )
            })
            .collect();
        assert_equivalent_under_repair::<Queue>(mode, workload);
    }
}

#[test]
fn prom_decisions_match_under_retransmit_in_all_modes() {
    for mode in [Mode::StaticTs, Mode::Hybrid, Mode::Dynamic2pl] {
        let workload: Vec<_> = (0..4u16)
            .map(|c| {
                private_txns(
                    c,
                    &[
                        vec![PromInv::Write(7)],
                        vec![PromInv::Seal],
                        vec![PromInv::Read],
                    ],
                )
            })
            .collect();
        assert_equivalent_under_repair::<Prom>(mode, workload);
    }
}

#[test]
fn flagset_decisions_match_under_retransmit_in_all_modes() {
    for mode in [Mode::StaticTs, Mode::Hybrid, Mode::Dynamic2pl] {
        let workload: Vec<_> = (0..4u16)
            .map(|c| {
                private_txns(
                    c,
                    &[
                        vec![FlagSetInv::Open],
                        vec![FlagSetInv::Shift(1), FlagSetInv::Shift(2)],
                        vec![FlagSetInv::Close],
                    ],
                )
            })
            .collect();
        assert_equivalent_under_repair::<FlagSet>(mode, workload);
    }
}

/// End-to-end idempotence: a DES network that duplicates a quarter of all
/// messages (acks and retransmitted Resolves included) still passes the
/// safety oracle, commits everything, and the frontier still advances far
/// enough for status GC to collect.
#[test]
fn duplicating_network_keeps_repair_oracle_clean() {
    let workload: Vec<_> = (0..3u16)
        .map(|c| {
            private_txns(
                c,
                &[
                    vec![QueueInv::Enq(1), QueueInv::Enq(2)],
                    vec![QueueInv::Deq],
                    vec![QueueInv::Enq(2), QueueInv::Deq],
                ],
            )
        })
        .collect();
    let total_txns: usize = workload.iter().map(Vec::len).sum();
    let report = RunBuilder::<Queue>::new(3)
        .protocol(ProtocolConfig::new(Protocol::new(
            Mode::Hybrid,
            relation::<Queue>(Mode::Hybrid),
        )))
        .tuning(
            TuningConfig::default()
                .scoped_statuses()
                .status_gc(2)
                .resolve_retransmit(400),
        )
        .network(NetworkConfig {
            dup_prob: 0.25,
            ..NetworkConfig::default()
        })
        .seed(23)
        .workload(workload)
        .run()
        .expect("duplicating DES run");
    let safety = report.safety(bounds());
    assert!(safety.is_ok(), "{safety}");
    assert_eq!(report.stats().committed, total_txns);
    assert!(report.telemetry().statuses_gcd > 0, "status GC never ran");
}
