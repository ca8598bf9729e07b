//! Small-scale end-to-end exercise of the real-socket load harness: a
//! loopback TCP cluster, a few hundred multiplexed client drivers, all
//! three concurrency-control modes. The full-scale version is the
//! `exp_load` bench.

use std::time::Duration;

use quorumcc_core::{minimal_dynamic_relation, minimal_static_relation};
use quorumcc_model::spec::ExploreBounds;
use quorumcc_net::{run_load, LoadBackend, LoadConfig, NetFaultProfile};
use quorumcc_replication::protocol::Mode;
use quorumcc_replication::{RunTelemetry, SafetyViolation};
use quorumcc_sim::Json;

fn bounds() -> ExploreBounds {
    ExploreBounds {
        depth: 4,
        ..ExploreBounds::default()
    }
}

#[test]
fn socket_cluster_serves_hundreds_of_multiplexed_clients() {
    use quorumcc_adts::Queue;
    for mode in [Mode::StaticTs, Mode::Hybrid, Mode::Dynamic2pl] {
        let relation = match mode {
            Mode::StaticTs | Mode::Hybrid => minimal_static_relation::<Queue>(bounds()).relation,
            Mode::Dynamic2pl => minimal_static_relation::<Queue>(bounds())
                .relation
                .union(&minimal_dynamic_relation::<Queue>(bounds()).relation),
        };
        let report = run_load(&LoadConfig {
            mode,
            relation,
            n_repos: 3,
            clients: 300,
            txns_per_client: 2,
            ops_per_txn: 2,
            objects: 512,
            workers: 4,
            seed: 11,
            deadline: Duration::from_secs(30),
            ..LoadConfig::default()
        });
        eprintln!("{mode:?}: {report:?}");
        assert_eq!(report.unfinished, 0, "{mode:?}: {report:?}");
        // `aborted` counts attempts (retries re-abort), so the exact txn
        // total is bounded, not equal.
        assert!(report.committed <= 600, "{mode:?}: {report:?}");
        assert!(report.committed > 0, "{mode:?}: nothing committed");
        assert!(report.p50_us > 0, "{mode:?}: missing latency samples");
        // The report names the mode as `Mode::name` does, and its JSON
        // reads `rejoins` off the cells' telemetry like any other count.
        assert_eq!(report.mode, mode.name());
        let Json::Object(members) = report.to_json() else {
            panic!("a load report renders as an object");
        };
        assert_eq!(members[0], ("mode".into(), Json::from(mode.name())));
        let rejoins = Json::from(report.telemetry().rejoins);
        assert!(members.contains(&("rejoins".into(), rejoins)));
    }
}

/// The supervised-reconnect path under deterministic socket faults: a
/// lossy shim (resets, stalls, split writes, silent drops) over the
/// event-loop backend, with frontier repair on. Enq-only on private-ish
/// objects is conflict-free, so *every* transaction must still commit —
/// the faults may only cost retries and reconnects, never outcomes —
/// and the durable-GC frontier must still advance end to end.
#[test]
fn lossy_sockets_with_repair_commit_everything() {
    use quorumcc_adts::Queue;
    let relation = minimal_static_relation::<Queue>(bounds()).relation;
    let report = run_load(&LoadConfig {
        mode: Mode::Hybrid,
        relation,
        n_repos: 3,
        clients: 48,
        txns_per_client: 20,
        ops_per_txn: 1,
        objects: 256,
        workers: 2,
        seed: 31,
        narrow: false,
        deq_fraction: 0.0,
        deadline: Duration::from_secs(60),
        scoped_statuses: true,
        status_gc: Some(4),
        backend: LoadBackend::EventLoop,
        fault_profile: NetFaultProfile::lossy(31),
        resolve_retransmit: Some(250_000),
        ..LoadConfig::default()
    });
    eprintln!("lossy repair: {report:?}");
    assert_eq!(report.unfinished, 0, "{report:?}");
    assert_eq!(report.committed, 48 * 20, "lossy run lost transactions");
    assert!(
        report.statuses_gcd > 0,
        "durable-GC frontier never advanced"
    );
    // The harvested run agrees: no committed write is missing from the
    // repositories, and the telemetry reconciles with the report.
    let lost: Vec<_> = report.cells[0]
        .safety(bounds())
        .violations()
        .iter()
        .filter(|v| matches!(v, SafetyViolation::LostWrite { .. }))
        .cloned()
        .collect();
    assert!(lost.is_empty(), "{lost:?}");
    let t = report.telemetry();
    assert_eq!(t.committed as usize, report.committed);
    assert_eq!(t.ops_completed as usize, report.ops_committed);
    assert_eq!(t.resolve_ack_retransmits, report.resolve_ack_retransmits);
    assert_eq!(t.statuses_gcd, report.statuses_gcd);
    assert_eq!(t.reconnects, report.reconnects);
}

/// The first audited socket run: a contended hybrid workload (30% `Deq`)
/// served over loopback TCP answers to the whole safety oracle — atomic
/// histories, no lost committed write, monotone versions, nested
/// checkpoints — exactly as a simulated run does.
#[test]
fn contended_socket_run_passes_the_safety_oracle() {
    use quorumcc_adts::Queue;
    let report = run_load(&LoadConfig {
        mode: Mode::Hybrid,
        relation: minimal_static_relation::<Queue>(bounds()).relation,
        clients: 8,
        txns_per_client: 12,
        ops_per_txn: 2,
        objects: 8,
        workers: 1,
        seed: 5,
        narrow: true,
        deq_fraction: 0.3,
        deadline: Duration::from_secs(30),
        scoped_statuses: true,
        status_gc: Some(8),
        ..LoadConfig::default()
    });
    assert_eq!(report.unfinished, 0, "{report:?}");
    assert!(report.committed > 0, "nothing committed");
    let [cell] = report.cells.as_slice() else {
        panic!("one cell expected, got {}", report.cells.len());
    };
    let safety = cell.safety(bounds());
    assert!(safety.is_ok(), "{safety}");
}

/// A run split over cells reports the sum of its cells: every additive
/// telemetry counter, and the `LoadReport` totals derived from them.
#[test]
fn multi_cell_telemetry_is_the_sum_of_its_cells() {
    use quorumcc_adts::Queue;
    let report = run_load(&LoadConfig {
        mode: Mode::Hybrid,
        relation: minimal_static_relation::<Queue>(bounds()).relation,
        clusters: 3,
        clients: 30,
        txns_per_client: 2,
        ops_per_txn: 2,
        objects: 64,
        workers: 2,
        seed: 17,
        deadline: Duration::from_secs(30),
        ..LoadConfig::default()
    });
    assert_eq!(report.unfinished, 0, "{report:?}");
    assert_eq!(report.cells.len(), 3);
    let merged = report.telemetry();
    let sum = |f: fn(&RunTelemetry) -> u64| -> u64 {
        report.cells.iter().map(|c| f(c.telemetry())).sum()
    };
    assert_eq!(merged.runs, 3);
    assert_eq!(merged.committed, sum(|t| t.committed));
    assert_eq!(merged.ops_completed, sum(|t| t.ops_completed));
    assert_eq!(merged.msgs_sent, sum(|t| t.msgs_sent));
    assert_eq!(merged.msgs_delivered, sum(|t| t.msgs_delivered));
    assert_eq!(merged.timers, sum(|t| t.timers));
    assert_eq!(merged.log_entries_shipped, sum(|t| t.log_entries_shipped));
    assert_eq!(
        merged.op_latency.count() as u64,
        sum(|t| t.op_latency.count() as u64)
    );
    assert_eq!(merged.committed as usize, report.committed);
    assert!(merged.msgs_sent > 0 && merged.msgs_delivered > 0);
}
