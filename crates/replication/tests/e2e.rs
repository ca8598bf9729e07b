//! End-to-end soundness: simulated replicated clusters must produce
//! histories satisfying their protocol's atomicity property — and
//! deliberately broken quorum assignments must be observably unsound.

use quorumcc_core::certificates::prom_hybrid_relation;
use quorumcc_core::{minimal_dynamic_relation, minimal_static_relation, DependencyRelation};
use quorumcc_model::spec::ExploreBounds;
use quorumcc_model::testtypes::{QInv, TestQueue, TestRegister};
use quorumcc_model::EventClass;
use quorumcc_quorum::ThresholdAssignment;
use quorumcc_replication::cluster::{ProtocolConfig, RunBuilder, TuningConfig};
use quorumcc_replication::error::ReplicationError;
use quorumcc_replication::protocol::{Mode, Protocol};
use quorumcc_replication::workload::{generate, WorkloadSpec};
use quorumcc_replication::{Fanout, ObjId, RunTelemetry, Transaction};
use quorumcc_sim::{FaultPlan, NetworkConfig};
use rand::Rng;

fn bounds() -> ExploreBounds {
    ExploreBounds {
        depth: 5,
        ..ExploreBounds::default()
    }
}

fn queue_rel(mode: Mode) -> DependencyRelation {
    match mode {
        // ≥S is both the static relation and (by Theorem 4) a hybrid
        // dependency relation for the queue.
        Mode::StaticTs | Mode::Hybrid => minimal_static_relation::<TestQueue>(bounds()).relation,
        Mode::Dynamic2pl => {
            // 2PL conflicts are non-commutation, and the view must still
            // observe everything the static relation demands; use the
            // union (a valid dynamic dependency relation — supersets of
            // ≥D remain dependency relations).
            minimal_static_relation::<TestQueue>(bounds())
                .relation
                .union(&minimal_dynamic_relation::<TestQueue>(bounds()).relation)
        }
    }
}

fn queue_protocol(mode: Mode) -> ProtocolConfig {
    ProtocolConfig::new(Protocol::new(mode, queue_rel(mode)))
}

fn queue_workload(seed: u64, clients: usize, txns: usize) -> Vec<Vec<Transaction<QInv>>> {
    generate(
        WorkloadSpec {
            clients,
            txns_per_client: txns,
            ops_per_txn: 2,
            objects: 1,
            seed,
        },
        |rng| {
            if rng.gen_bool(0.6) {
                QInv::Enq(rng.gen_range(1..=2))
            } else {
                QInv::Deq
            }
        },
    )
}

/// Serializes a run's telemetry next to the theory pipeline's
/// `BENCH_*.json` files (target tmpdir under `cargo test`).
fn write_bench_telemetry(id: &str, telemetry: &RunTelemetry) {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("BENCH_{id}.json"));
    let doc = quorumcc_sim::Json::object()
        .field("id", id)
        .field("telemetry", telemetry.to_json());
    std::fs::write(&path, format!("{doc}\n")).expect("write BENCH json");
}

/// The central soundness loop: for every protocol mode and several seeds,
/// the captured history satisfies the protocol's atomicity property.
#[test]
fn captured_histories_satisfy_each_mode() {
    for mode in [Mode::StaticTs, Mode::Hybrid, Mode::Dynamic2pl] {
        for seed in 0..5u64 {
            let report = RunBuilder::<TestQueue>::new(3)
                // Backoff-retry resolves conflict storms (dynamic 2PL can
                // otherwise abort every transaction of a contended run).
                .protocol(queue_protocol(mode).txn_retries(6))
                .seed(seed)
                .workload(queue_workload(seed, 3, 3))
                .run()
                .unwrap();
            let totals = report.stats();
            assert!(
                totals.committed > 0,
                "{mode} seed {seed}: nothing committed"
            );
            report.check_atomicity(bounds()).unwrap_or_else(|obj| {
                panic!(
                    "{mode} seed {seed}: non-atomic history for {obj}:\n{:?}",
                    report.history(obj).entries()
                )
            });
        }
    }
}

/// Same seed ⇒ byte-identical histories (the substrate is deterministic).
#[test]
fn runs_are_deterministic() {
    let run = || {
        let report = RunBuilder::<TestQueue>::new(3)
            .protocol(queue_protocol(Mode::Hybrid))
            .seed(99)
            .workload(queue_workload(99, 3, 3))
            .run()
            .unwrap();
        report.history(ObjId(0))
    };
    assert_eq!(run(), run());
}

/// Hybrid permits what dynamic refuses: concurrent enqueues. Under
/// contention the hybrid protocol commits at least as many transactions
/// and suffers no more conflict aborts than strict 2PL — the concurrency
/// half of the paper's Figure 1-1.
#[test]
fn hybrid_aborts_no_more_than_dynamic_under_contention() {
    let mut hybrid_aborts = 0usize;
    let mut dynamic_aborts = 0usize;
    for seed in 0..8u64 {
        // Enqueue-heavy workload: Enq/Enq conflicts under ≥D only.
        let w = generate(
            WorkloadSpec {
                clients: 4,
                txns_per_client: 4,
                ops_per_txn: 2,
                objects: 1,
                seed,
            },
            |rng| QInv::Enq(rng.gen_range(1..=2)),
        );
        let h = RunBuilder::<TestQueue>::new(3)
            .protocol(queue_protocol(Mode::Hybrid))
            .seed(seed)
            .workload(w.clone())
            .run()
            .unwrap();
        let d = RunBuilder::<TestQueue>::new(3)
            .protocol(queue_protocol(Mode::Dynamic2pl))
            .seed(seed)
            .workload(w)
            .run()
            .unwrap();
        hybrid_aborts += h.stats().aborted_conflict;
        dynamic_aborts += d.stats().aborted_conflict;
        // The telemetry's conflict counter agrees with the client stats.
        assert_eq!(
            d.telemetry().aborted_conflict as usize,
            d.stats().aborted_conflict
        );
    }
    assert!(
        hybrid_aborts <= dynamic_aborts,
        "hybrid {hybrid_aborts} > dynamic {dynamic_aborts}"
    );
    assert!(
        dynamic_aborts > 0,
        "contention too low to exercise Enq/Enq locking"
    );
}

/// The §4 PROM quorum assignment (Read=1, Seal=n, Write=1) really works:
/// an end-to-end write/seal/read lifecycle over 5 repositories.
#[test]
fn prom_lifecycle_with_paper_quorums() {
    use quorumcc_adts::prom::{PromInv, PromRes};
    use quorumcc_adts::Prom;

    let n = 5;
    let mut ta = ThresholdAssignment::new(n);
    ta.set_initial("Read", 1);
    ta.set_initial("Write", 1);
    ta.set_initial("Seal", n);
    ta.set_final(EventClass::new("Seal", "Ok"), n);
    ta.set_final(EventClass::new("Write", "Ok"), 1);
    ta.set_final(EventClass::new("Read", "Disabled"), 1);

    // One client, three sequential transactions: Write → Seal → Read.
    // (Concurrent interleavings are exercised by the other tests; here we
    // demonstrate the *quorum sizes* of the §4 table end to end.)
    let w: Vec<Vec<Transaction<PromInv>>> = vec![vec![
        Transaction {
            ops: vec![(ObjId(0), PromInv::Write(42))],
        },
        Transaction {
            ops: vec![(ObjId(0), PromInv::Seal)],
        },
        Transaction {
            ops: vec![(ObjId(0), PromInv::Read)],
        },
    ]];
    let report = RunBuilder::<Prom>::new(n)
        .protocol(ProtocolConfig::new(Protocol::new(
            Mode::Hybrid,
            prom_hybrid_relation(),
        )))
        .thresholds(ta)
        .seed(3)
        .workload(w)
        .run()
        .unwrap();
    report
        .check_atomicity(bounds())
        .unwrap_or_else(|o| panic!("non-atomic PROM history for {o}"));
    assert_eq!(report.stats().committed, 3);
    // The read ran after the seal and must observe the sealed 42 — through
    // the Seal's propagated view, since initial(Read)=1 does not intersect
    // final(Write/Ok)=1 directly.
    let h = report.history(ObjId(0));
    let read_ok = h.entries().iter().any(|e| {
        matches!(
            e.event().map(|ev| (&ev.inv, &ev.res)),
            Some((PromInv::Read, PromRes::Item(42)))
        )
    });
    assert!(read_ok, "{h}");
}

/// Quorum validation refuses assignments that violate the dependency
/// relation — as a typed error on the new surface.
#[test]
fn invalid_thresholds_are_rejected() {
    let mut ta = ThresholdAssignment::new(3);
    // Everything 1: Deq's initial quorum cannot see Enq finals.
    for op in ["Enq", "Deq"] {
        ta.set_initial(op, 1);
    }
    let err = RunBuilder::<TestQueue>::new(3)
        .protocol(queue_protocol(Mode::Hybrid))
        .thresholds(ta)
        .workload(queue_workload(1, 2, 2))
        .run()
        .unwrap_err();
    assert!(matches!(err, ReplicationError::InvalidThresholds(_)));
    assert!(err.to_string().contains("violate the dependency relation"));
}

/// With validation bypassed, undersized quorums observably break
/// atomicity for some seed — the constraints are not pedantry — whether a
/// client asks every site (and takes the first reply) or only a quorum.
#[test]
fn undersized_quorums_break_atomicity() {
    for fanout in [Fanout::Broadcast, Fanout::Narrow] {
        let mut broken = false;
        // Seed 1 is a known violation under these parameters with either
        // fan-out (the in-tree `rand` is xoshiro256++, so seed→workload
        // differs from upstream); scan a window around it so the test
        // stays fast while still *searching*.
        for seed in 0..12u64 {
            let mut ta = ThresholdAssignment::new(3);
            for op in ["Enq", "Deq"] {
                ta.set_initial(op, 1);
            }
            for ev in [
                EventClass::new("Enq", "Ok"),
                EventClass::new("Deq", "Ok"),
                EventClass::new("Deq", "Empty"),
            ] {
                ta.set_final(ev, 1);
            }
            let report = RunBuilder::<TestQueue>::new(3)
                .protocol(queue_protocol(Mode::Hybrid))
                .thresholds(ta)
                .seed(seed)
                .tuning(TuningConfig::default().fanout(fanout))
                .workload(queue_workload(seed, 3, 6))
                .run_unchecked()
                .unwrap();
            if report.check_atomicity(bounds()).is_err() {
                broken = true;
                break;
            }
        }
        assert!(
            broken,
            "{fanout:?}: 1-of-3 quorums never produced a non-atomic history"
        );
    }
}

/// One crashed repository out of three: majorities still commit, and the
/// history stays atomic.
#[test]
fn single_crash_is_tolerated_by_majorities() {
    let mut faults = FaultPlan::none();
    faults.crash(0, 0, 1_000_000);
    let report = RunBuilder::<TestQueue>::new(3)
        .protocol(queue_protocol(Mode::Hybrid))
        .faults(faults)
        .seed(5)
        .workload(queue_workload(5, 2, 3))
        .run()
        .unwrap();
    let totals = report.stats();
    assert!(totals.committed > 0);
    assert_eq!(totals.aborted_unavailable, 0);
    report
        .check_atomicity(bounds())
        .expect("atomicity under crash");
}

/// Two crashed repositories out of three: majorities are unreachable —
/// transactions abort as unavailable, and nothing corrupts.
#[test]
fn majority_loss_blocks_but_stays_safe() {
    let mut faults = FaultPlan::none();
    faults.crash(0, 0, 1_000_000);
    faults.crash(1, 0, 1_000_000);
    let report = RunBuilder::<TestQueue>::new(3)
        .protocol(queue_protocol(Mode::Hybrid).op_timeout(50))
        .faults(faults)
        .seed(5)
        .workload(queue_workload(5, 2, 2))
        .run()
        .unwrap();
    let totals = report.stats();
    assert_eq!(totals.committed, 0);
    assert!(totals.aborted_unavailable > 0);
    // Unavailability shows up in telemetry as phase retries and a 100%
    // abort rate.
    let t = report.telemetry();
    assert!(t.phase_retries > 0);
    assert!((t.abort_rate() - 1.0).abs() < 1e-12);
    report
        .check_atomicity(bounds())
        .expect("safety under majority loss");
}

/// A healed partition: operations blocked during the split succeed after.
/// The run's telemetry is serialized like the theory pipeline's
/// `BENCH_*.json` records.
#[test]
fn partition_heals_and_work_resumes() {
    let mut faults = FaultPlan::none();
    // Clients are ids 3.. — split repos {0} ∪ clients from repos {1, 2}
    // for the first 300 ticks.
    faults.partition([1, 2], 0, 300);
    let report = RunBuilder::<TestQueue>::new(3)
        // Enough retry budget that attempts outlive the 300-tick split
        // (in-partition attempts burn on unavailability and on conflicts
        // at the single reachable repository).
        .protocol(queue_protocol(Mode::Hybrid).op_timeout(40).txn_retries(8))
        .faults(faults)
        .seed(8)
        .workload(queue_workload(8, 2, 2))
        .run()
        .unwrap();
    let totals = report.stats();
    assert!(totals.committed > 0, "{totals:?}");
    report
        .check_atomicity(bounds())
        .expect("atomicity across partition");
    // The split cost messages: drops and retries are visible.
    let t = report.telemetry();
    assert!(t.msgs_dropped > 0, "partition dropped nothing?");
    write_bench_telemetry("e2e_partition", t);
}

/// Lossy network: retries mask drops; atomicity holds.
#[test]
fn message_loss_is_masked_by_retries() {
    let report = RunBuilder::<TestQueue>::new(3)
        .protocol(queue_protocol(Mode::Hybrid).op_timeout(60).txn_retries(5))
        .network(NetworkConfig {
            min_delay: 1,
            max_delay: 10,
            drop_prob: 0.1,
            ..NetworkConfig::default()
        })
        .seed(13)
        .workload(queue_workload(13, 2, 3))
        .run()
        .unwrap();
    assert!(report.stats().committed > 0);
    report
        .check_atomicity(bounds())
        .expect("atomicity under loss");
}

/// The register under all three modes, with its own minimal relations.
#[test]
fn register_modes_end_to_end() {
    for mode in [Mode::StaticTs, Mode::Hybrid, Mode::Dynamic2pl] {
        let rel = match mode {
            Mode::StaticTs | Mode::Hybrid => {
                minimal_static_relation::<TestRegister>(bounds()).relation
            }
            Mode::Dynamic2pl => minimal_static_relation::<TestRegister>(bounds())
                .relation
                .union(&minimal_dynamic_relation::<TestRegister>(bounds()).relation),
        };
        let w = generate(
            WorkloadSpec {
                clients: 3,
                txns_per_client: 3,
                ops_per_txn: 2,
                objects: 1,
                seed: 21,
            },
            |rng| {
                if rng.gen_bool(0.5) {
                    Some(rng.gen_range(1..=2))
                } else {
                    None
                }
            },
        );
        let report = RunBuilder::<TestRegister>::new(3)
            .protocol(ProtocolConfig::new(Protocol::new(mode, rel)).txn_retries(5))
            .seed(21)
            .workload(w)
            .run()
            .unwrap();
        assert!(report.stats().committed > 0, "{mode}");
        report
            .check_atomicity(bounds())
            .unwrap_or_else(|o| panic!("{mode}: non-atomic register history {o}"));
    }
}

/// Transaction retry turns conflict aborts into eventual commits.
#[test]
fn retries_recover_conflicted_transactions() {
    let w = generate(
        WorkloadSpec {
            clients: 3,
            txns_per_client: 3,
            ops_per_txn: 2,
            objects: 1,
            seed: 31,
        },
        |rng| {
            if rng.gen_bool(0.5) {
                QInv::Enq(rng.gen_range(1..=2))
            } else {
                QInv::Deq
            }
        },
    );
    let no_retry = RunBuilder::<TestQueue>::new(3)
        .protocol(queue_protocol(Mode::Dynamic2pl))
        .seed(31)
        .workload(w.clone())
        .run()
        .unwrap();
    let with_retry = RunBuilder::<TestQueue>::new(3)
        .protocol(queue_protocol(Mode::Dynamic2pl).txn_retries(4))
        .seed(31)
        .workload(w)
        .run()
        .unwrap();
    assert!(with_retry.stats().committed >= no_retry.stats().committed);
    // Re-runs happened and are counted.
    assert!(with_retry.telemetry().txn_reruns > 0);
    assert_eq!(no_retry.telemetry().txn_reruns, 0);
    with_retry
        .check_atomicity(bounds())
        .expect("atomicity with retries");
}

/// Multiple objects in one transaction: per-object histories are each
/// atomic.
#[test]
fn multi_object_transactions() {
    let w = generate(
        WorkloadSpec {
            clients: 3,
            txns_per_client: 3,
            ops_per_txn: 3,
            objects: 2,
            seed: 41,
        },
        |rng| {
            if rng.gen_bool(0.6) {
                QInv::Enq(rng.gen_range(1..=2))
            } else {
                QInv::Deq
            }
        },
    );
    let report = RunBuilder::<TestQueue>::new(3)
        .protocol(queue_protocol(Mode::Hybrid))
        .seed(41)
        .workload(w)
        .run()
        .unwrap();
    assert_eq!(report.objects().len(), 2);
    report
        .check_atomicity(bounds())
        .expect("multi-object atomicity");
}

/// Ablation: §3.2's *view propagation* (final-quorum writes carry the
/// whole merged view) is what makes transitive dependencies work. With it
/// disabled, the PROM's minimal hybrid assignment — where Reads learn of
/// Writes only through the Seal's written view — returns a stale default.
#[test]
fn view_propagation_ablation_breaks_prom_reads() {
    use quorumcc_adts::prom::{PromInv, PromRes};
    use quorumcc_adts::Prom;

    let n = 5;
    let mk_thresholds = || {
        let mut ta = ThresholdAssignment::new(n);
        ta.set_initial("Read", 1);
        ta.set_initial("Write", 1);
        ta.set_initial("Seal", n);
        ta.set_final(EventClass::new("Seal", "Ok"), n);
        ta.set_final(EventClass::new("Write", "Ok"), 1);
        ta.set_final(EventClass::new("Read", "Disabled"), 1);
        ta
    };
    let w = || {
        vec![vec![
            Transaction {
                ops: vec![(ObjId(0), PromInv::Write(42))],
            },
            Transaction {
                ops: vec![(ObjId(0), PromInv::Seal)],
            },
            Transaction {
                ops: vec![(ObjId(0), PromInv::Read)],
            },
        ]]
    };
    let read_result = |report: &quorumcc_replication::RunReport<Prom>| {
        report
            .history(ObjId(0))
            .entries()
            .iter()
            .find_map(|e| match e.event() {
                Some(ev) if ev.inv == PromInv::Read => Some(ev.res),
                _ => None,
            })
    };

    // With propagation (narrow fan-out: exactly the quorum lands on
    // disk): the read sees the sealed 42 via the Seal's written view.
    let good = RunBuilder::<Prom>::new(n)
        .protocol(ProtocolConfig::new(Protocol::new(
            Mode::Hybrid,
            prom_hybrid_relation(),
        )))
        .thresholds(mk_thresholds())
        .seed(3)
        .tuning(TuningConfig::default().fanout(Fanout::Narrow))
        .workload(w())
        .run()
        .unwrap();
    assert_eq!(read_result(&good), Some(PromRes::Item(42)));
    good.check_atomicity(bounds())
        .expect("propagating run atomic");

    // Without propagation: the read misses the write (its 1-site initial
    // quorum never intersects the write's 1-site final quorum) and the
    // captured history is non-atomic.
    let bad = RunBuilder::<Prom>::new(n)
        .protocol(ProtocolConfig::new(Protocol::new(
            Mode::Hybrid,
            prom_hybrid_relation(),
        )))
        .thresholds(mk_thresholds())
        .seed(3)
        .tuning(
            TuningConfig::default()
                .fanout(Fanout::Narrow)
                .no_view_propagation(),
        )
        .workload(w())
        .run_unchecked()
        .unwrap();
    assert_eq!(
        read_result(&bad),
        Some(PromRes::Item(0)),
        "ablated read should see the stale default"
    );
    assert!(bad.check_atomicity(bounds()).is_err());
}

/// Narrow (preferred-quorum) fan-out preserves the soundness loop: exactly
/// quorum-sized message sets, rotating per request, histories still
/// atomic.
#[test]
fn narrow_fanout_stays_atomic() {
    for mode in [Mode::StaticTs, Mode::Hybrid, Mode::Dynamic2pl] {
        for seed in 0..4u64 {
            // Narrow fan-out detects conflicts later (the preferred sets
            // rotate), so strict 2PL conflict-storms harder; two clients
            // keep the dynamic runs convergent.
            let clients = if mode == Mode::Dynamic2pl { 2 } else { 3 };
            let report = RunBuilder::<TestQueue>::new(3)
                .protocol(queue_protocol(mode).txn_retries(6))
                .tuning(TuningConfig::default().fanout(Fanout::Narrow))
                .seed(seed)
                .workload(queue_workload(seed, clients, 3))
                .run()
                .unwrap();
            assert!(report.stats().committed > 0, "{mode} seed {seed}");
            report
                .check_atomicity(bounds())
                .unwrap_or_else(|o| panic!("{mode} seed {seed}: non-atomic {o}"));
        }
    }
}

/// Narrow fan-out falls back to broadcast on timeout: a crashed preferred
/// replica costs a retry, not the transaction.
#[test]
fn narrow_fanout_fallback_survives_crash() {
    let mut faults = FaultPlan::none();
    faults.crash(0, 0, 1_000_000);
    let report = RunBuilder::<TestQueue>::new(3)
        .protocol(queue_protocol(Mode::Hybrid).op_timeout(40).txn_retries(3))
        .tuning(TuningConfig::default().fanout(Fanout::Narrow))
        .faults(faults)
        .seed(5)
        .workload(queue_workload(5, 2, 3))
        .run()
        .unwrap();
    assert!(report.stats().committed > 0);
    report
        .check_atomicity(bounds())
        .expect("atomic under narrow+crash");
}

/// Anti-entropy heals divergence: with narrow fan-out and tiny final
/// quorums, entries initially land on single repositories; periodic log
/// gossip converges every replica. The healed run's telemetry is
/// serialized like the theory pipeline's `BENCH_*.json` records.
#[test]
fn anti_entropy_converges_replicas() {
    // Enq-only workload with final(Enq/Ok) = 1 so entries start sparse;
    // initial(Deq) = 3 keeps the relation valid.
    let mut ta = ThresholdAssignment::new(3);
    ta.set_initial("Enq", 3);
    ta.set_initial("Deq", 3);
    for ev in [
        EventClass::new("Enq", "Ok"),
        EventClass::new("Deq", "Ok"),
        EventClass::new("Deq", "Empty"),
    ] {
        ta.set_final(ev, 1);
    }
    let workload = || {
        vec![vec![Transaction {
            ops: vec![
                (ObjId(0), QInv::Enq(1)),
                (ObjId(0), QInv::Enq(2)),
                (ObjId(0), QInv::Enq(1)),
            ],
        }]]
    };

    // Without anti-entropy: narrow writes leave replicas diverged.
    let plain = RunBuilder::<TestQueue>::new(3)
        .protocol(queue_protocol(Mode::Hybrid))
        .thresholds(ta.clone())
        .tuning(TuningConfig::default().fanout(Fanout::Narrow))
        .seed(2)
        .workload(workload())
        .run()
        .unwrap();
    let sizes = |r: &quorumcc_replication::RunReport<TestQueue>| {
        r.repo_logs()
            .iter()
            .map(|per| per.first().map(|(_, n)| *n).unwrap_or(0))
            .collect::<Vec<_>>()
    };
    let diverged = sizes(&plain);
    assert!(
        diverged.iter().any(|n| *n != diverged[0]),
        "expected divergence, got {diverged:?}"
    );

    // With anti-entropy and a settling tail, every replica has all entries.
    let healed = RunBuilder::<TestQueue>::new(3)
        .protocol(queue_protocol(Mode::Hybrid))
        .thresholds(ta)
        .tuning(
            TuningConfig::default()
                .fanout(Fanout::Narrow)
                .anti_entropy(25),
        )
        .max_time(3_000)
        .seed(2)
        .workload(workload())
        .run()
        .unwrap();
    let converged = sizes(&healed);
    assert!(
        converged.iter().all(|n| *n == 3),
        "expected full convergence, got {converged:?}"
    );
    healed
        .check_atomicity(bounds())
        .expect("atomic with gossip");
    // Gossip shows up in the telemetry's log-length histogram: every
    // replica at 3 entries.
    let t = healed.telemetry();
    assert_eq!(t.log_lengths.min(), Some(3));
    assert_eq!(t.log_lengths.max(), Some(3));
    write_bench_telemetry("e2e_anti_entropy", t);
}

/// Soak: long randomized runs across every mode, fan-out, and a rotating
/// fault plan — hours of simulated time, every history checked.
/// `cargo test -p quorumcc-replication --test e2e -- --ignored` to run.
#[test]
#[ignore = "long-running soak; run explicitly"]
fn soak_randomized_clusters() {
    for seed in 0..30u64 {
        for mode in [Mode::StaticTs, Mode::Hybrid, Mode::Dynamic2pl] {
            let mut faults = FaultPlan::none();
            if seed % 3 == 1 {
                faults.crash(seed as u32 % 3, 100, 600);
            }
            if seed % 3 == 2 {
                faults.partition([0], 200, 500);
            }
            let fanout = if seed % 2 == 0 {
                Fanout::Broadcast
            } else {
                Fanout::Narrow
            };
            let report = RunBuilder::<TestQueue>::new(3)
                .protocol(
                    queue_protocol(mode)
                        .op_timeout(50)
                        .txn_retries(6)
                        .commit_delay(if seed % 4 == 0 { 20 } else { 0 }),
                )
                .faults(faults)
                .tuning(TuningConfig::default().fanout(fanout))
                .seed(seed)
                .workload(queue_workload(seed, 3, 4))
                .run()
                .unwrap();
            report
                .check_atomicity(bounds())
                .unwrap_or_else(|o| panic!("soak {mode} seed {seed} {fanout:?}: non-atomic {o}"));
        }
    }
}
