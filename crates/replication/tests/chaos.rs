//! Chaos-layer integration tests: delta shipping under duplication and
//! reordering, volatile-crash recovery, the safety oracle (including its
//! self-test against a deliberately weakened quorum check), and the
//! determinism of chaos sweeps across thread counts.

use quorumcc_core::DependencyRelation;
use quorumcc_model::spec::ExploreBounds;
use quorumcc_model::testtypes::{QInv, QRes, TestQueue};
use quorumcc_model::{ActionId, Classified, Enumerable};
use quorumcc_replication::chaos::{self, ChaosConfig, ChaosPlan};
use quorumcc_replication::cluster::{ProtocolConfig, RunBuilder, TuningConfig};
use quorumcc_replication::messages::Msg;
use quorumcc_replication::protocol::{Mode, Protocol};
use quorumcc_replication::repository::{Durability, Repository};
use quorumcc_replication::types::{entry_of, ActionOutcome, ObjId, ObjectLog, VersionedLog};
use quorumcc_replication::workload::{generate, WorkloadSpec};
use quorumcc_replication::Transaction;
use quorumcc_sim::{Ctx, FaultPlan, NetworkConfig, ProcId, Process, Sim, Timestamp, TraceConfig};
use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng as _};

fn ts(c: u64, n: u32) -> Timestamp {
    Timestamp {
        counter: c,
        node: n,
    }
}

fn bounds() -> ExploreBounds {
    ExploreBounds {
        depth: 4,
        ..ExploreBounds::default()
    }
}

fn queue_protocol(mode: Mode) -> Protocol {
    Protocol::new(mode, DependencyRelation::full::<TestQueue>())
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
            if rng.gen_bool(0.5) {
                QInv::Enq(rng.gen_range(0..4))
            } else {
                QInv::Deq
            }
        },
    )
}

/// The delta-shipping property the lossy network leans on: a mirror that
/// receives every reply once, in order, and a mirror that additionally
/// receives stale duplicates at arbitrary later points converge to the
/// same state as the repository log — for every ADT we ship.
fn delta_replies_tolerate_duplication<S: Classified + Enumerable>(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let alphabet = S::invocations();
    let mut repo: VersionedLog<S::Inv, S::Res> = VersionedLog::new();
    let mut clean: VersionedLog<S::Inv, S::Res> = VersionedLog::new();
    let mut noisy: VersionedLog<S::Inv, S::Res> = VersionedLog::new();
    let mut state = S::initial();
    let mut history: Vec<quorumcc_replication::types::LogDelta<S::Inv, S::Res>> = Vec::new();
    let mut frontier = 0u64;
    for step in 0..60u64 {
        let inv = alphabet[rng.gen_range(0..alphabet.len())].clone();
        let (res, next) = S::apply(&state, &inv);
        state = next;
        let stamp = ts(step + 1, 1);
        let action = ActionId(step as u32);
        repo.insert(entry_of::<S>(stamp, action, stamp, inv, res));
        if rng.gen_bool(0.5) {
            repo.resolve(action, ActionOutcome::Committed(ts(step + 1, 9)));
        }
        // The mirror reads with the frontier it last announced — exactly
        // what delta shipping does.
        let d = repo.delta_since(frontier);
        clean.apply_delta(&d);
        noisy.apply_delta(&d);
        frontier = clean.version();
        history.push(d);
        // The lossy network re-delivers stale copies of earlier replies.
        for _ in 0..rng.gen_range(0..3u32) {
            let stale = &history[rng.gen_range(0..history.len())];
            noisy.apply_delta(stale);
        }
    }
    let render = |v: &VersionedLog<S::Inv, S::Res>| {
        format!(
            "v={} entries={:?} statuses={:?}",
            v.version(),
            v.log().entries().collect::<Vec<_>>(),
            v.log().statuses().collect::<Vec<_>>()
        )
    };
    assert_eq!(
        render(&clean),
        render(&noisy),
        "{}: duplicates diverged",
        S::NAME
    );
    assert_eq!(
        format!("{:?}", repo.log().entries().collect::<Vec<_>>()),
        format!("{:?}", clean.log().entries().collect::<Vec<_>>()),
        "{}: mirror lost entries",
        S::NAME
    );
}

/// Entry-less gossip merges are CRDT-safe: merging the same partial views
/// in any order, any number of times, converges to the same log.
fn gossip_merges_commute<S: Classified + Enumerable>(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let alphabet = S::invocations();
    let mut full: ObjectLog<S::Inv, S::Res> = ObjectLog::new();
    let mut parts: Vec<ObjectLog<S::Inv, S::Res>> = (0..4).map(|_| ObjectLog::new()).collect();
    let mut state = S::initial();
    for step in 0..40u64 {
        let inv = alphabet[rng.gen_range(0..alphabet.len())].clone();
        let (res, next) = S::apply(&state, &inv);
        state = next;
        let e = entry_of::<S>(
            ts(step + 1, 1),
            ActionId(step as u32),
            ts(step + 1, 1),
            inv,
            res,
        );
        full.insert(e.clone());
        let k = rng.gen_range(0..parts.len());
        parts[k].insert(e);
        if rng.gen_bool(0.4) {
            let o = ActionOutcome::Committed(ts(step + 1, 9));
            full.resolve(ActionId(step as u32), o);
            parts[k].resolve(ActionId(step as u32), o);
        }
    }
    let render = |l: &ObjectLog<S::Inv, S::Res>| {
        format!(
            "{:?} {:?}",
            l.entries().collect::<Vec<_>>(),
            l.statuses().collect::<Vec<_>>()
        )
    };
    // Two targets merge the parts in different orders, with duplicates.
    let mut forward: ObjectLog<S::Inv, S::Res> = ObjectLog::new();
    for p in &parts {
        forward.merge(p);
    }
    let mut backward: ObjectLog<S::Inv, S::Res> = ObjectLog::new();
    for p in parts.iter().rev() {
        backward.merge(p);
        backward.merge(p); // duplicate delivery
    }
    for p in &parts {
        backward.merge(p); // a second full round, reordered
    }
    assert_eq!(
        render(&forward),
        render(&full),
        "{}: merge lost data",
        S::NAME
    );
    assert_eq!(
        render(&forward),
        render(&backward),
        "{}: merge order mattered",
        S::NAME
    );
}

#[test]
fn delta_shipping_tolerates_duplicated_and_stale_replies_for_every_adt() {
    for seed in [1, 2, 3] {
        delta_replies_tolerate_duplication::<quorumcc_adts::Queue>(seed);
        delta_replies_tolerate_duplication::<quorumcc_adts::Prom>(seed);
        delta_replies_tolerate_duplication::<quorumcc_adts::FlagSet>(seed);
    }
}

#[test]
fn gossip_merges_commute_for_every_adt() {
    for seed in [1, 2, 3] {
        gossip_merges_commute::<quorumcc_adts::Queue>(seed);
        gossip_merges_commute::<quorumcc_adts::Prom>(seed);
        gossip_merges_commute::<quorumcc_adts::FlagSet>(seed);
    }
}

#[test]
fn chaos_networks_keep_every_mode_atomic() {
    // Duplication, reordering, and both at once must never cost safety —
    // in any of the three concurrency-control modes.
    let nets = [
        NetworkConfig {
            min_delay: 1,
            max_delay: 10,
            dup_prob: 0.1,
            ..NetworkConfig::default()
        },
        NetworkConfig {
            min_delay: 1,
            max_delay: 10,
            reorder_window: 15,
            ..NetworkConfig::default()
        },
        NetworkConfig {
            min_delay: 1,
            max_delay: 10,
            drop_prob: 0.03,
            dup_prob: 0.05,
            reorder_window: 8,
        },
    ];
    for mode in [Mode::StaticTs, Mode::Hybrid, Mode::Dynamic2pl] {
        for (i, net) in nets.iter().enumerate() {
            let report = RunBuilder::<TestQueue>::new(3)
                .protocol(ProtocolConfig::new(queue_protocol(mode)).txn_retries(2))
                .network(*net)
                .seed(40 + i as u64)
                .max_time(30_000)
                .workload(queue_workload(40 + i as u64, 2, 3))
                .run()
                .expect("valid configuration");
            let safety = report.safety(bounds());
            assert!(safety.is_ok(), "{mode:?} under net #{i}: {safety}");
            let t = report.telemetry();
            // The chaos knobs actually fired and were counted.
            if net.dup_prob > 0.0 {
                assert!(t.msgs_duplicated > 0, "{mode:?} net #{i}: no dups");
            }
            if net.reorder_window > 0 {
                assert!(t.msgs_reordered > 0, "{mode:?} net #{i}: no reorders");
            }
        }
    }
}

/// A two-repository harness where the probe feeds both repositories an
/// identical acked-write script, repository 1 crashes and recovers, and a
/// late read compares what the two sides still serve.
struct Probe {
    replies: Vec<(ProcId, Msg<QInv, QRes>)>,
}

enum Node {
    Repo(Box<Repository<TestQueue>>),
    Probe(Probe),
}

impl Process<Msg<QInv, QRes>> for Node {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg<QInv, QRes>>) {
        if let Node::Probe(_) = self {
            for target in [0u32, 1] {
                for k in 0..3u64 {
                    let e = entry_of::<TestQueue>(
                        ts(k + 1, 5),
                        ActionId(k as u32),
                        ts(k + 1, 5),
                        QInv::Enq(k as u8),
                        QRes::Ok,
                    );
                    ctx.send(
                        target,
                        Msg::WriteLog {
                            obj: ObjId(0),
                            req: k + 1,
                            log: ObjectLog::new(),
                            entry: Some(e),
                            cfg: 0,
                            base: 0,
                        },
                    );
                }
                ctx.send(
                    target,
                    Msg::Resolve {
                        action: ActionId(0),
                        outcome: ActionOutcome::Committed(ts(9, 9)),
                        entries: vec![(ObjId(0), 1)],
                    },
                );
            }
            ctx.set_timer(400, 0);
        }
    }

    fn on_message(
        &mut self,
        ctx: &mut Ctx<'_, Msg<QInv, QRes>>,
        from: ProcId,
        msg: Msg<QInv, QRes>,
    ) {
        match self {
            Node::Repo(r) => r.handle(ctx, from, msg),
            Node::Probe(p) => p.replies.push((from, msg)),
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg<QInv, QRes>>, token: u64) {
        match self {
            Node::Repo(r) => r.tick(ctx, token),
            Node::Probe(_) => {
                for target in [0u32, 1] {
                    ctx.send(
                        target,
                        Msg::ReadLog {
                            obj: ObjId(0),
                            req: 100 + u64::from(target),
                            action: ActionId(77),
                            begin_ts: ts(50, 9),
                            op: "Deq",
                            cfg: 0,
                            since: 0,
                            durable: 0,
                        },
                    );
                }
            }
        }
    }

    fn on_recover(&mut self, ctx: &mut Ctx<'_, Msg<QInv, QRes>>) {
        if let Node::Repo(r) = self {
            r.on_recover(ctx);
        }
    }
}

fn recovery_replies(durability: Durability) -> Vec<(ProcId, Msg<QInv, QRes>)> {
    let rel = DependencyRelation::full::<TestQueue>();
    let nodes = vec![
        Node::Repo(Box::new(Repository::new(Mode::Hybrid, rel.clone()))),
        Node::Repo(Box::new(
            Repository::new(Mode::Hybrid, rel).with_durability(durability),
        )),
        Node::Probe(Probe {
            replies: Vec::new(),
        }),
    ];
    let mut faults = FaultPlan::none();
    faults.crash(1, 50, 100);
    let mut sim = Sim::new(
        nodes,
        NetworkConfig {
            min_delay: 1,
            max_delay: 1,
            ..NetworkConfig::default()
        },
        faults,
        7,
    );
    sim.run(1_000);
    let Node::Probe(p) = sim.process(2) else {
        panic!("probe expected")
    };
    p.replies.clone()
}

fn log_reply_entries(replies: &[(ProcId, Msg<QInv, QRes>)], from: ProcId) -> String {
    let (_, Msg::LogReply { delta, .. }) = replies
        .iter()
        .find(|(f, m)| *f == from && matches!(m, Msg::LogReply { .. }))
        .expect("log reply")
    else {
        unreachable!()
    };
    format!("{:?} {:?}", delta.entries, delta.statuses)
}

#[test]
fn wal_recovery_restores_exactly_what_a_stable_site_serves() {
    // Same acked script to a Stable repo and a Volatile{wal} repo; the
    // volatile one crashes, loses memory, and replays its write-ahead
    // mirror — a later read must not be able to tell the two apart.
    let replies = recovery_replies(Durability::Volatile { wal: true });
    assert_eq!(
        log_reply_entries(&replies, 0),
        log_reply_entries(&replies, 1)
    );
    assert!(log_reply_entries(&replies, 1).contains("Enq"));
}

#[test]
fn amnesiac_recovery_without_peers_loses_everything() {
    // The same script without a WAL: recovery has nothing to replay and
    // no peers to sync from, so the acked entries are simply gone. (This
    // is the misconfiguration the safety oracle exists to flag.)
    let replies = recovery_replies(Durability::Volatile { wal: false });
    assert!(log_reply_entries(&replies, 0).contains("Enq"));
    assert!(!log_reply_entries(&replies, 1).contains("Enq"));
}

#[test]
fn volatile_wal_cluster_survives_crashes_with_a_clean_oracle() {
    // End-to-end: a WAL-backed volatile repository crashes mid-run,
    // recovers, syncs from peers, and the oracle still passes. The
    // recovery shows up in telemetry and the trace.
    let mut faults = FaultPlan::none();
    faults.crash(0, 200, 700);
    let report = RunBuilder::<TestQueue>::new(3)
        .protocol(ProtocolConfig::new(queue_protocol(Mode::Hybrid)).txn_retries(2))
        .tuning(TuningConfig::default().durability(Durability::Volatile { wal: true }))
        .faults(faults)
        .trace(TraceConfig::unbounded())
        .seed(11)
        .max_time(30_000)
        .workload(queue_workload(11, 3, 6))
        .run()
        .expect("valid configuration");
    let safety = report.safety(bounds());
    assert!(safety.is_ok(), "{safety}");
    let t = report.telemetry();
    assert_eq!(t.recoveries, 1);
    let trace = report.trace().expect("trace captured");
    let kinds: Vec<&str> = trace.events().iter().map(|e| e.action.kind()).collect();
    assert!(kinds.contains(&"recover"), "no recover event");
    // Telemetry and trace agree on full-log fallbacks.
    let traced_fallbacks = kinds.iter().filter(|k| **k == "full-log-fallback").count() as u64;
    assert_eq!(t.full_log_fallbacks, traced_fallbacks);
}

#[test]
fn stale_frontier_past_the_journal_is_served_full_and_counted() {
    // Push enough journaled changes that the earliest fall off the cap,
    // then read with an ancient (but nonzero) frontier: the repository
    // must serve a full transfer, count it, and trace it.
    struct Flood {
        reply: Option<Box<Msg<QInv, QRes>>>,
    }
    enum N {
        Repo(Box<Repository<TestQueue>>),
        Flood(Flood),
    }
    impl Process<Msg<QInv, QRes>> for N {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Msg<QInv, QRes>>) {
            if let N::Flood(_) = self {
                for k in 0..1100u64 {
                    let e = entry_of::<TestQueue>(
                        ts(k + 1, 5),
                        ActionId(k as u32),
                        ts(k + 1, 5),
                        QInv::Enq((k % 250) as u8),
                        QRes::Ok,
                    );
                    ctx.send(
                        0,
                        Msg::WriteLog {
                            obj: ObjId(0),
                            req: k + 1,
                            log: ObjectLog::new(),
                            entry: Some(e),
                            cfg: 0,
                            base: 0,
                        },
                    );
                }
                ctx.send(
                    0,
                    Msg::ReadLog {
                        obj: ObjId(0),
                        req: 9999,
                        action: ActionId(7777),
                        begin_ts: ts(2000, 9),
                        op: "Deq",
                        cfg: 0,
                        since: 1,
                        durable: 0,
                    },
                );
            }
        }
        fn on_message(
            &mut self,
            ctx: &mut Ctx<'_, Msg<QInv, QRes>>,
            from: ProcId,
            msg: Msg<QInv, QRes>,
        ) {
            match self {
                N::Repo(r) => r.handle(ctx, from, msg),
                N::Flood(f) => {
                    if matches!(msg, Msg::LogReply { .. }) {
                        f.reply = Some(Box::new(msg));
                    }
                }
            }
        }
    }
    let nodes = vec![
        N::Repo(Box::new(Repository::new(
            Mode::Hybrid,
            DependencyRelation::full::<TestQueue>(),
        ))),
        N::Flood(Flood { reply: None }),
    ];
    let mut sim = Sim::with_trace(
        nodes,
        NetworkConfig {
            min_delay: 1,
            max_delay: 1,
            ..NetworkConfig::default()
        },
        FaultPlan::none(),
        3,
        TraceConfig::unbounded(),
    );
    sim.run(10_000);
    let trace = sim.take_trace().expect("trace");
    let fallbacks = trace
        .events()
        .iter()
        .filter(|e| e.action.kind() == "full-log-fallback")
        .count();
    assert_eq!(fallbacks, 1);
    let N::Repo(r) = sim.process(0) else {
        panic!("repo expected")
    };
    assert_eq!(r.counters().full_log_fallbacks, 1);
    let N::Flood(f) = sim.process(1) else {
        panic!("flood expected")
    };
    let Some(Msg::LogReply { delta, .. }) = f.reply.as_deref() else {
        panic!("no reply")
    };
    assert!(delta.full, "expected a full transfer");
}

#[test]
fn amnesiac_durability_is_flagged_by_the_oracle() {
    // Volatile without a WAL is deliberately outside the sound sampling
    // space; a crash mid-run must produce a run the oracle rejects
    // (version regression at least — possibly worse).
    let protocol = queue_protocol(Mode::Hybrid);
    let cfg = ChaosConfig::default();
    let mut flagged = false;
    for seed in 0..10u64 {
        let mut plan = ChaosPlan::sample(1000 + seed, 0, &cfg);
        plan.durability = Durability::Volatile { wal: false };
        plan.net = NetworkConfig {
            min_delay: 1,
            max_delay: 10,
            ..NetworkConfig::default()
        };
        plan.faults = FaultPlan::none();
        plan.faults.crash(0, 300, 900);
        let (_, safety) = chaos::run_plan::<TestQueue>(&protocol, &cfg, &plan).expect("valid plan");
        if !safety.is_ok() {
            flagged = true;
            break;
        }
    }
    assert!(flagged, "oracle never flagged amnesiac recovery");
}

#[test]
fn weakened_read_quorum_is_caught_and_shrunk_to_a_minimal_plan() {
    // The oracle's self-test: a client that assembles its initial view
    // from one repository too few breaks the ti + tf > n intersection.
    // Single-op transactions with quiet tails give the staleness nowhere
    // to hide behind aborts; some sampled plan must produce a flagged
    // run, and the greedy shrinker must hand back a minimal plan that
    // still fails and replays from its printed spec.
    let protocol = queue_protocol(Mode::Hybrid);
    let cfg = ChaosConfig {
        weaken_read_quorum: true,
        clients: 2,
        txns_per_client: 2,
        ops_per_txn: 1,
        ..ChaosConfig::default()
    };
    let mut failing: Option<ChaosPlan> = None;
    for idx in 0..100u64 {
        let plan = ChaosPlan::sample(77, idx, &cfg);
        let (_, safety) = chaos::run_plan::<TestQueue>(&protocol, &cfg, &plan).expect("valid plan");
        if !safety.is_ok() {
            failing = Some(plan);
            break;
        }
    }
    let failing = failing.expect("weakened quorum never produced a violation in 100 plans");
    let minimal = chaos::shrink_failure::<TestQueue>(&protocol, &cfg, failing.clone());
    // Still failing, and no larger than what we started from.
    let (_, safety) = chaos::run_plan::<TestQueue>(&protocol, &cfg, &minimal).expect("valid plan");
    assert!(!safety.is_ok(), "shrunk plan no longer fails");
    assert!(minimal.faults.len() <= failing.faults.len());
    // The printed spec replays to the identical verdict.
    let replayed = ChaosPlan::parse(&minimal.encode()).expect("spec parses");
    let (_, replay_safety) =
        chaos::run_plan::<TestQueue>(&protocol, &cfg, &replayed).expect("valid plan");
    assert_eq!(
        format!("{safety}"),
        format!("{replay_safety}"),
        "replay diverged from the shrunk plan"
    );
}

#[test]
fn chaos_sweep_is_identical_at_every_thread_count() {
    let protocol = queue_protocol(Mode::Hybrid);
    let cfg = ChaosConfig {
        txns_per_client: 2,
        ..ChaosConfig::default()
    };
    let render = |outcomes: &[chaos::ChaosOutcome]| {
        outcomes
            .iter()
            .map(|o| {
                format!(
                    "{}|{}|{}|{}|{}|{}|{}|{:?}",
                    o.plan.encode(),
                    o.committed,
                    o.aborted_conflict,
                    o.aborted_unavailable,
                    o.msgs_dropped,
                    o.recoveries,
                    o.full_log_fallbacks,
                    o.violations
                )
            })
            .collect::<Vec<_>>()
    };
    let base = render(&chaos::sweep::<TestQueue>(&protocol, &cfg, 5, 6, 1));
    for threads in [2, 4, 0] {
        let other = render(&chaos::sweep::<TestQueue>(&protocol, &cfg, 5, 6, threads));
        assert_eq!(base, other, "sweep diverged at threads={threads}");
    }
    // And the sweep on a sound tree is violation-free.
    assert!(base.iter().all(|line| line.ends_with("[]")), "{base:?}");
}

/// The acceptance stress run (ignored by default; `scripts/verify.sh`
/// and CI run it explicitly): 600 sampled fault plans over the sound
/// sampling space, every run audited by the oracle, zero violations.
#[test]
#[ignore]
fn chaos_sweep_600_plans_is_violation_free() {
    let protocol = queue_protocol(Mode::Hybrid);
    let cfg = ChaosConfig::default();
    let out = chaos::sweep::<TestQueue>(&protocol, &cfg, 2026, 600, 0);
    let bad: Vec<_> = out.iter().filter(|o| !o.violations.is_empty()).collect();
    let committed: u64 = out.iter().map(|o| o.committed).sum();
    let recov: u64 = out.iter().map(|o| o.recoveries).sum();
    println!(
        "600 plans: committed={committed} recoveries={recov} violations={}",
        bad.len()
    );
    for b in &bad {
        println!("BAD: {} -> {:?}", b.plan.encode(), b.violations);
    }
    assert!(bad.is_empty());
}
