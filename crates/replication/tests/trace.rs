//! The observability contract: traces are deterministic (same seed ⇒
//! byte-identical render at every thread count of the relation
//! pipeline), golden for a pinned run, and telemetry reconciles with the
//! client-visible statistics.

use quorumcc_core::enumerate::{CorpusConfig, Property};
use quorumcc_core::verifier::ClauseSet;
use quorumcc_core::{minimal_dynamic_relation, minimal_static_relation, DependencyRelation};
use quorumcc_model::spec::ExploreBounds;
use quorumcc_model::testtypes::{QInv, TestQueue};
use quorumcc_replication::cluster::{ProtocolConfig, RunBuilder};
use quorumcc_replication::protocol::{Mode, Protocol};
use quorumcc_replication::workload::{generate, WorkloadSpec};
use quorumcc_sim::trace::TraceConfig;
use quorumcc_sim::NetworkConfig;
use rand::Rng;

fn bounds() -> ExploreBounds {
    ExploreBounds {
        depth: 4,
        max_states: 4_096,
        budget: 5_000_000,
    }
}

fn queue_workload(
    seed: u64,
    clients: usize,
    txns: usize,
) -> Vec<Vec<quorumcc_replication::Transaction<QInv>>> {
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

/// Runs a traced hybrid cluster with `rel` and returns the rendered
/// trace.
fn traced_render(rel: DependencyRelation, seed: u64) -> String {
    let report = RunBuilder::<TestQueue>::new(3)
        .protocol(ProtocolConfig::new(Protocol::new(Mode::Hybrid, rel)).txn_retries(3))
        .seed(seed)
        .trace(TraceConfig::unbounded())
        .workload(queue_workload(seed, 3, 3))
        .run()
        .unwrap();
    report.trace().expect("tracing enabled").render()
}

/// The end-to-end determinism gate: derive the protocol's dependency
/// relation through the *parallel* clause pipeline at several thread
/// counts, run the traced cluster with each, and demand byte-identical
/// traces. The thread knob must move timings only — never the trace.
#[test]
fn trace_is_identical_at_every_thread_count() {
    let relation_at = |threads: usize| -> DependencyRelation {
        let cfg = CorpusConfig {
            exhaustive_ops: 2,
            max_actions: 3,
            samples: 800,
            sample_ops: 4,
            seed: 7,
            bounds: bounds(),
            threads,
        };
        let cs = ClauseSet::extract::<TestQueue>(Property::Hybrid, &cfg, &[]);
        cs.minimal_relations_par(4, threads)
            .into_iter()
            .next()
            .expect("at least one minimal relation")
    };
    let reference = traced_render(relation_at(1), 42);
    assert!(!reference.is_empty());
    for threads in [2usize, 4, 0] {
        let render = traced_render(relation_at(threads), 42);
        assert_eq!(
            reference, render,
            "trace diverged when the relation pipeline ran at {threads} threads"
        );
    }
}

/// Same seed, same config ⇒ byte-identical traces run-over-run (no
/// hidden global state, wall clock, or allocator order in the tracer).
#[test]
fn trace_render_is_reproducible() {
    let rel = minimal_static_relation::<TestQueue>(bounds()).relation;
    let a = traced_render(rel.clone(), 17);
    let b = traced_render(rel, 17);
    assert_eq!(a, b);
}

/// Golden trace for the Theorem-12 object: a DoubleBuffer cluster on a
/// delay-1 lossless network, single producer/consumer pipeline. Pins the
/// exact event sequence the run opens with — the serialized format is an
/// interface now (`qcc trace`, saved `BENCH_*.json` artifacts), so
/// accidental format or scheduling drift must fail loudly.
#[test]
fn golden_trace_for_thm12_doublebuffer_run() {
    use quorumcc_adts::doublebuffer::DoubleBufferInv as DbI;
    use quorumcc_adts::DoubleBuffer;
    use quorumcc_core::certificates::doublebuffer_dynamic_relation;
    use quorumcc_replication::{ObjId, Transaction};

    let run = || {
        RunBuilder::<DoubleBuffer>::new(3)
            .protocol(ProtocolConfig::new(Protocol::new(
                Mode::Dynamic2pl,
                doublebuffer_dynamic_relation(),
            )))
            .network(NetworkConfig {
                min_delay: 1,
                max_delay: 1,
                ..NetworkConfig::default()
            })
            .seed(12)
            .trace(TraceConfig::unbounded())
            .workload(vec![vec![Transaction {
                ops: vec![
                    (ObjId(0), DbI::Produce(1)),
                    (ObjId(0), DbI::Transfer),
                    (ObjId(0), DbI::Consume),
                ],
            }]])
            .run()
            .unwrap()
    };
    let report = run();
    assert_eq!(report.stats().committed, 1);
    let render = report.trace().expect("tracing enabled").render();

    // Byte-identical across runs.
    assert_eq!(render, run().trace().unwrap().render());

    // The pinned opening: the client (site 3) wakes, begins its
    // transaction, fans the Produce read-phase out to all three
    // repositories, and the first replica answers with a reservation.
    let golden_prefix = "\
[       4] site=3   lam=1      timer token=0
[       4] site=3   lam=2      txn-begin action=300000
[       4] site=3   lam=3      phase-start obj=0 req=1 phase=read
[       4] site=3   lam=4      send to=0
[       4] site=3   lam=5      send to=1
[       4] site=3   lam=6      send to=2
[       5] site=0   lam=5      deliver from=3
[       5] site=0   lam=6      reserve obj=0 action=300000";
    let prefix: Vec<&str> = render.lines().take(8).collect();
    assert_eq!(prefix.join("\n"), golden_prefix);
}

/// Randomized reconciliation: for every mode and seed, the run's
/// telemetry must agree with the per-client statistics and the
/// simulator's message counters — the histograms are derived views, not
/// independent bookkeeping.
#[test]
fn telemetry_reconciles_with_client_stats() {
    for mode in [Mode::StaticTs, Mode::Hybrid, Mode::Dynamic2pl] {
        let rel = match mode {
            Mode::StaticTs | Mode::Hybrid => {
                minimal_static_relation::<TestQueue>(bounds()).relation
            }
            Mode::Dynamic2pl => minimal_static_relation::<TestQueue>(bounds())
                .relation
                .union(&minimal_dynamic_relation::<TestQueue>(bounds()).relation),
        };
        for seed in 0..6u64 {
            let report = RunBuilder::<TestQueue>::new(3)
                .protocol(ProtocolConfig::new(Protocol::new(mode, rel.clone())).txn_retries(4))
                .seed(seed)
                .workload(queue_workload(seed, 3, 3))
                .run()
                .unwrap();
            let totals = report.stats();
            let t = report.telemetry();
            assert_eq!(t.mode, mode.name());
            assert_eq!(t.committed as usize, totals.committed, "{mode} seed {seed}");
            assert_eq!(t.aborted_conflict as usize, totals.aborted_conflict);
            assert_eq!(t.aborted_unavailable as usize, totals.aborted_unavailable);
            assert_eq!(t.ops_completed as usize, totals.ops_completed);
            assert_eq!(
                t.decided() as usize,
                totals.committed + totals.aborted_conflict + totals.aborted_unavailable
            );
            let sim = report.sim_stats();
            assert_eq!(t.msgs_sent as usize, sim.sent);
            assert_eq!(t.msgs_delivered as usize, sim.delivered);
            assert_eq!(t.msgs_dropped as usize, sim.dropped);
            // Histograms are per-op views: one latency sample per
            // completed op, one final round-trip per completed op, at
            // least as many initial round-trips (conflicted reads also
            // complete an initial quorum).
            assert_eq!(t.op_latency.count() as u64, t.ops_completed);
            assert_eq!(t.final_rt.count() as u64, t.ops_completed);
            // Funnel: every completed read phase records an initial
            // round-trip; the evaluations that pass record a view size;
            // the writes that land complete the op. Each stage can only
            // shrink the count.
            assert!(t.initial_rt.count() >= t.view_sizes.count());
            assert!(t.view_sizes.count() as u64 >= t.ops_completed);
            // Log lengths: one sample per (repository, object).
            assert_eq!(
                t.log_lengths.count() as usize,
                report.repo_logs().iter().map(Vec::len).sum::<usize>()
            );
            // The JSON document round-trips the headline counters.
            let json = t.to_json().to_string();
            assert!(json.contains(&format!("\"committed\": {}", t.committed)));
            assert!(json.contains(&format!("\"msgs_sent\": {}", t.msgs_sent)));
        }
    }
}

/// Disabled tracing leaves no buffer behind and changes nothing
/// observable (stats, histories) vs an unbounded-trace run.
#[test]
fn tracing_is_observably_free() {
    let rel = minimal_static_relation::<TestQueue>(bounds()).relation;
    let build = || {
        RunBuilder::<TestQueue>::new(3)
            .protocol(ProtocolConfig::new(Protocol::new(Mode::Hybrid, rel.clone())).txn_retries(3))
            .seed(23)
            .workload(queue_workload(23, 3, 3))
    };
    let plain = build().run().unwrap();
    let traced = build().trace(TraceConfig::unbounded()).run().unwrap();
    assert!(plain.trace().is_none());
    assert!(traced.trace().is_some());
    assert_eq!(plain.stats(), traced.stats());
    assert_eq!(plain.sim_stats(), traced.sim_stats());
    assert_eq!(
        plain.history(quorumcc_replication::ObjId(0)),
        traced.history(quorumcc_replication::ObjId(0))
    );
    assert_eq!(plain.telemetry().to_json(), traced.telemetry().to_json());
}

/// Ring-buffered capture: a tiny capacity keeps only the newest events
/// and reports how many were evicted.
#[test]
fn ring_capture_keeps_the_tail() {
    let rel = minimal_static_relation::<TestQueue>(bounds()).relation;
    let full = RunBuilder::<TestQueue>::new(3)
        .protocol(ProtocolConfig::new(Protocol::new(
            Mode::Hybrid,
            rel.clone(),
        )))
        .seed(29)
        .trace(TraceConfig::unbounded())
        .workload(queue_workload(29, 2, 2))
        .run()
        .unwrap();
    let ringed = RunBuilder::<TestQueue>::new(3)
        .protocol(ProtocolConfig::new(Protocol::new(Mode::Hybrid, rel)))
        .seed(29)
        .trace(TraceConfig::ring(16))
        .workload(queue_workload(29, 2, 2))
        .run()
        .unwrap();
    let full = full.trace().unwrap();
    let ringed = ringed.trace().unwrap();
    assert_eq!(ringed.len(), 16);
    assert!(ringed.overwritten() > 0);
    // The ring holds exactly the tail of the full capture.
    let tail = &full.events()[full.events().len() - 16..];
    assert_eq!(ringed.events(), tail);
}
