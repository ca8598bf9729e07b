//! The shipping-optimization contract: delta log shipping and
//! committed-prefix compaction are *transport* changes — every decision a
//! cluster makes (commits, aborts, histories, traces) must be identical
//! to the full-log baseline, run for run and byte for byte. Only the
//! payloads and the retained log lengths may shrink.

use quorumcc_core::certificates::doublebuffer_dynamic_relation;
use quorumcc_core::parallel::map_indexed;
use quorumcc_core::{minimal_dynamic_relation, minimal_static_relation, DependencyRelation};
use quorumcc_model::spec::ExploreBounds;
use quorumcc_model::testtypes::TestQueue;
use quorumcc_model::{Classified, Enumerable};
use quorumcc_replication::cluster::{ProtocolConfig, RunBuilder, TuningConfig};
use quorumcc_replication::protocol::{Mode, Protocol};
use quorumcc_replication::workload::{generate, WorkloadSpec};
use quorumcc_replication::{CompactionConfig, ObjId, RunReport, RunTelemetry};
use quorumcc_sim::trace::TraceConfig;
use quorumcc_sim::{FaultPlan, NetworkConfig};
use rand::Rng;

fn bounds() -> ExploreBounds {
    ExploreBounds {
        depth: 4,
        max_states: 4_096,
        budget: 5_000_000,
    }
}

/// An eager compaction config so short test runs actually fold: prefixes
/// become checkpoints after ~50 ticks instead of the default 160, from
/// 2 entries up. The lag still dominates the default network's 10-tick
/// maximum delay, which is what correctness wants.
fn eager() -> CompactionConfig {
    CompactionConfig {
        lag: 50,
        min_entries: 2,
    }
}

/// The three shipping configurations under comparison.
fn tunings() -> [(&'static str, TuningConfig); 3] {
    [
        ("full", TuningConfig::default().full_log_shipping()),
        ("delta", TuningConfig::default()),
        ("delta+compact", TuningConfig::default().compaction(eager())),
    ]
}

fn run_one<S: Enumerable + Classified>(
    mode: Mode,
    rel: DependencyRelation,
    seed: u64,
    tuning: TuningConfig,
) -> RunReport<S> {
    let alphabet = S::invocations();
    let w = generate(
        WorkloadSpec {
            clients: 3,
            txns_per_client: 4,
            ops_per_txn: 2,
            objects: 2,
            seed,
        },
        |rng| alphabet[rng.gen_range(0..alphabet.len())].clone(),
    );
    RunBuilder::<S>::new(3)
        .protocol(ProtocolConfig::new(Protocol::new(mode, rel)).txn_retries(3))
        .tuning(tuning)
        .seed(seed)
        .workload(w)
        .run()
        .unwrap()
}

/// For one data type and mode, every shipping configuration must decide
/// every transaction identically on every seed, stay atomic, and — in
/// aggregate — ship strictly fewer entries (delta) and retain strictly
/// shorter logs (compaction) than the full baseline.
fn assert_shipping_preserves_outcomes<S: Enumerable + Classified>(mode: Mode) {
    let rel = match mode {
        Mode::StaticTs | Mode::Hybrid => minimal_static_relation::<S>(bounds()).relation,
        Mode::Dynamic2pl => minimal_static_relation::<S>(bounds())
            .relation
            .union(&minimal_dynamic_relation::<S>(bounds()).relation),
    };
    let mut shipped = [0u64; 3];
    let mut retained = [0usize; 3];
    for seed in 0..5u64 {
        let reports: Vec<RunReport<S>> = tunings()
            .into_iter()
            .map(|(_, tuning)| run_one::<S>(mode, rel.clone(), seed, tuning))
            .collect();
        let baseline = &reports[0];
        baseline.check_atomicity(bounds()).unwrap();
        for (i, report) in reports.iter().enumerate() {
            let (name, _) = tunings()[i];
            report.check_atomicity(bounds()).unwrap();
            assert_eq!(
                baseline.stats(),
                report.stats(),
                "{mode} seed {seed}: {name} changed decision counts"
            );
            for obj in [ObjId(0), ObjId(1)] {
                assert_eq!(
                    format!("{:?}", baseline.history(obj)),
                    format!("{:?}", report.history(obj)),
                    "{mode} seed {seed}: {name} changed the history of {obj:?}"
                );
            }
            shipped[i] += report.telemetry().log_entries_shipped;
            retained[i] += report
                .repo_logs()
                .iter()
                .flatten()
                .map(|(_, len)| len)
                .sum::<usize>();
        }
    }
    assert!(
        shipped[1] < shipped[0],
        "{mode}: delta shipping must ship fewer entries ({} vs {})",
        shipped[1],
        shipped[0]
    );
    assert!(
        shipped[2] <= shipped[1],
        "{mode}: compaction must not ship more than plain delta"
    );
    // Static-timestamp mode never folds (it serializes by Begin
    // timestamp and must keep old committed entries to detect TooLate),
    // so only the other modes must show shorter retained logs.
    if mode != Mode::StaticTs {
        assert!(
            retained[2] < retained[1],
            "{mode}: compaction must retain shorter logs ({} vs {})",
            retained[2],
            retained[1]
        );
    }
}

#[test]
fn queue_outcomes_survive_delta_and_compaction_in_every_mode() {
    for mode in [Mode::StaticTs, Mode::Hybrid, Mode::Dynamic2pl] {
        assert_shipping_preserves_outcomes::<TestQueue>(mode);
    }
}

#[test]
fn prom_outcomes_survive_delta_and_compaction() {
    assert_shipping_preserves_outcomes::<quorumcc_adts::Prom>(Mode::Hybrid);
}

#[test]
fn flagset_outcomes_survive_delta_and_compaction() {
    assert_shipping_preserves_outcomes::<quorumcc_adts::FlagSet>(Mode::Hybrid);
}

/// The golden Theorem-12 DoubleBuffer run (pinned byte-for-byte in
/// `tests/trace.rs`) must render the *same* trace under every shipping
/// configuration — compaction may not move a single message or timer.
#[test]
fn golden_thm12_trace_is_identical_under_every_shipping_config() {
    use quorumcc_adts::doublebuffer::DoubleBufferInv as DbI;
    use quorumcc_adts::DoubleBuffer;
    use quorumcc_replication::Transaction;

    let run = |tuning: TuningConfig| {
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
            .tuning(tuning)
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
    let baseline = run(TuningConfig::default().full_log_shipping());
    assert_eq!(baseline.stats().committed, 1);
    let reference = baseline.trace().unwrap().render();
    for (name, tuning) in tunings() {
        let report = run(tuning);
        assert_eq!(
            reference,
            report.trace().unwrap().render(),
            "Thm-12 trace diverged under {name}"
        );
        assert_eq!(baseline.stats(), report.stats());
    }
}

/// The mid-partition reconfiguration scenario from `tests/reconfig.rs`
/// (crash at t = 600, partition 650..900, epoch 1 installed inside the
/// partition) must also be trace-identical: compaction interacts with
/// state transfer to fresh members, and even that transfer may only
/// change payloads, never the event sequence.
#[test]
fn midpartition_reconfig_trace_is_identical_under_every_shipping_config() {
    use quorumcc_model::testtypes::QInv;
    use quorumcc_quorum::ThresholdAssignment;
    use quorumcc_replication::{Config, ReconfigPolicy};

    let thresholds_over = |n: u32, k: u32| {
        let mut ta = ThresholdAssignment::new(n);
        for op in TestQueue::op_classes() {
            ta.set_initial(op, k);
        }
        for ev in TestQueue::event_classes() {
            ta.set_final(ev, k);
        }
        ta
    };
    let rel = minimal_static_relation::<TestQueue>(bounds()).relation;
    let run = |tuning: TuningConfig| {
        let mut faults = FaultPlan::none();
        faults.crash(2, 600, 4_000);
        faults.partition([1], 650, 900);
        let workload = generate(
            WorkloadSpec {
                clients: 2,
                txns_per_client: 4,
                ops_per_txn: 2,
                objects: 1,
                seed: 5,
            },
            |rng| {
                if rng.gen_bool(0.6) {
                    QInv::Enq(rng.gen_range(1..=2))
                } else {
                    QInv::Deq
                }
            },
        );
        RunBuilder::<TestQueue>::new(3)
            .protocol(ProtocolConfig::new(Protocol::new(Mode::Hybrid, rel.clone())).txn_retries(3))
            .thresholds(thresholds_over(3, 2))
            .network(NetworkConfig {
                min_delay: 1,
                max_delay: 1,
                ..NetworkConfig::default()
            })
            .tuning(tuning.think_time(200))
            .faults(faults)
            .max_time(4_000)
            .seed(21)
            .trace(TraceConfig::unbounded())
            .reconfig(ReconfigPolicy::Manual(vec![(
                700,
                Config::new(1, [0, 1], thresholds_over(2, 2)),
            )]))
            .workload(workload)
            .run()
            .unwrap()
    };
    let baseline = run(TuningConfig::default().full_log_shipping());
    let reference = baseline.trace().unwrap().render();
    assert!(!reference.is_empty());
    for (name, tuning) in tunings() {
        let report = run(tuning);
        assert_eq!(
            reference,
            report.trace().unwrap().render(),
            "reconfig trace diverged under {name}"
        );
        assert_eq!(baseline.stats(), report.stats());
    }
}

/// The experiment binaries fan independent seeded runs out over
/// `quorumcc_core::parallel` and merge telemetry in item order. That
/// merged document must be byte-identical at every thread count — with
/// compaction and delta shipping on.
#[test]
fn merged_telemetry_is_identical_at_every_thread_count() {
    let rel = minimal_static_relation::<TestQueue>(bounds()).relation;
    let seeds: Vec<u64> = (0..10).collect();
    let merged_at = |threads: usize| -> String {
        let tels: Vec<RunTelemetry> = map_indexed(threads, &seeds, |_, &seed| {
            run_one::<TestQueue>(
                Mode::Hybrid,
                rel.clone(),
                seed,
                TuningConfig::default().compaction(eager()),
            )
            .telemetry()
            .clone()
        });
        let mut merged = RunTelemetry::default();
        for t in &tels {
            merged.merge(t);
        }
        merged.to_json().to_string()
    };
    let reference = merged_at(1);
    for threads in [2usize, 4, 0] {
        assert_eq!(
            reference,
            merged_at(threads),
            "merged telemetry diverged at {threads} threads"
        );
    }
}
